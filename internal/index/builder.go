package index

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Document is the unit handed to the Builder: an external identifier
// plus per-field term counts. Construct with NewDocument and the Add*
// methods; a Document may be reused (see Reset) after AddDocument
// returns because the builder copies what it needs.
type Document struct {
	ext    string
	counts [numFields]map[string]int
}

// NewDocument starts an empty document with the given external ID.
func NewDocument(ext string) *Document {
	return &Document{ext: ext}
}

// Reset empties the document and gives it a new external ID, keeping
// its per-field maps so a bulk indexer can reuse one Document for every
// document it builds.
func (d *Document) Reset(ext string) *Document {
	d.ext = ext
	for _, m := range d.counts {
		clear(m)
	}
	return d
}

// AddTerms increments the count of each given term by one in field f.
func (d *Document) AddTerms(f Field, terms ...string) *Document {
	if d.counts[f] == nil {
		d.counts[f] = make(map[string]int)
	}
	for _, t := range terms {
		d.counts[f][t]++
	}
	return d
}

// SetTermCount sets an explicit term count (used e.g. to encode
// detector confidence as a weight). Counts <= 0 remove the term.
func (d *Document) SetTermCount(f Field, term string, n int) *Document {
	if d.counts[f] == nil {
		d.counts[f] = make(map[string]int)
	}
	if n <= 0 {
		delete(d.counts[f], term)
		return d
	}
	d.counts[f][term] = n
	return d
}

// Len returns the total token count of field f.
func (d *Document) Len(f Field) int {
	n := 0
	for _, c := range d.counts[f] {
		n += c
	}
	return n
}

// posting is the builder's in-memory posting representation.
type posting struct {
	doc DocID
	tf  uint32
}

// Builder accumulates documents and freezes them into an Index.
// Builders are single-goroutine; the produced Index is concurrent-safe.
type Builder struct {
	postings [numFields]map[string][]posting
	docLens  [numFields][]uint32
	totalLen [numFields]uint64
	extIDs   []string
	ext2id   map[string]DocID
	built    bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	b := &Builder{ext2id: make(map[string]DocID)}
	for f := range b.postings {
		b.postings[f] = make(map[string][]posting)
	}
	return b
}

// NumDocs reports how many documents have been added so far.
func (b *Builder) NumDocs() int { return len(b.extIDs) }

// AddDocument ingests one document. External IDs must be unique and
// non-empty. Adding after Build is an error.
func (b *Builder) AddDocument(d *Document) error {
	if b.built {
		return fmt.Errorf("index: builder already built")
	}
	if d.ext == "" {
		return fmt.Errorf("index: document with empty external id")
	}
	if _, dup := b.ext2id[d.ext]; dup {
		return fmt.Errorf("index: duplicate external id %q", d.ext)
	}
	id := DocID(len(b.extIDs))
	b.ext2id[d.ext] = id
	b.extIDs = append(b.extIDs, d.ext)
	for f := Field(0); f < numFields; f++ {
		var fieldLen uint64
		// Map order is random, but each term's postings stay in DocID
		// order whatever order the doc's terms arrive in, and Build
		// sorts the vocabulary: the index bytes do not depend on it.
		for t, tf := range d.counts[f] {
			b.postings[f][t] = append(b.postings[f][t], posting{doc: id, tf: uint32(tf)})
			fieldLen += uint64(tf)
		}
		b.docLens[f] = append(b.docLens[f], uint32(fieldLen))
		b.totalLen[f] += fieldLen
	}
	return nil
}

// Build freezes the builder into an immutable Index. The builder must
// not be used afterwards.
func (b *Builder) Build() *Index {
	b.built = true
	ix := &Index{
		extIDs: b.extIDs,
		ext2id: b.ext2id,
	}
	var scratch [binary.MaxVarintLen64]byte
	var docRun, tfRun []byte // per-block scratch, reused across blocks
	for f := Field(0); f < numFields; f++ {
		fi := &ix.fields[f]
		fi.docLens = b.docLens[f]
		fi.totalLen = b.totalLen[f]
		fi.terms = make(map[string]int32, len(b.postings[f]))
		// Sort the vocabulary so blob layout and termList are
		// deterministic functions of the document set.
		terms := make([]string, 0, len(b.postings[f]))
		for t := range b.postings[f] {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		fi.termList = terms
		fi.infos = make([]termInfo, len(terms))
		// Encode postings in self-describing blocks of up to BlockSize:
		// header (n, docBytes, tfBytes), then the delta/varint doc run,
		// then the varint tf run. Deltas continue across block
		// boundaries. The header lets a reader bounds-check a block
		// once and decode each run in its own tight loop.
		var blob []byte
		for i, t := range terms {
			plist := b.postings[f][t]
			info := termInfo{df: uint32(len(plist)), off: uint64(len(blob))}
			var prev DocID
			for start := 0; start < len(plist); start += BlockSize {
				end := start + BlockSize
				if end > len(plist) {
					end = len(plist)
				}
				docRun, tfRun = docRun[:0], tfRun[:0]
				for j := start; j < end; j++ {
					p := plist[j]
					delta := uint64(p.doc)
					if j > 0 {
						delta = uint64(p.doc - prev)
					}
					prev = p.doc
					n := binary.PutUvarint(scratch[:], delta)
					docRun = append(docRun, scratch[:n]...)
					n = binary.PutUvarint(scratch[:], uint64(p.tf))
					tfRun = append(tfRun, scratch[:n]...)
					info.cf += uint64(p.tf)
				}
				n := binary.PutUvarint(scratch[:], uint64(end-start))
				blob = append(blob, scratch[:n]...)
				n = binary.PutUvarint(scratch[:], uint64(len(docRun)))
				blob = append(blob, scratch[:n]...)
				n = binary.PutUvarint(scratch[:], uint64(len(tfRun)))
				blob = append(blob, scratch[:n]...)
				blob = append(blob, docRun...)
				blob = append(blob, tfRun...)
			}
			info.n = uint64(len(blob)) - info.off
			fi.infos[i] = info
			fi.terms[t] = int32(i)
		}
		fi.blob = blob
	}
	return ix
}

// Package index implements the inverted-index storage engine under the
// retrieval system: a field-aware dictionary, varint-compressed posting
// lists, a document store mapping external IDs to dense internal doc
// IDs, and a versioned, checksummed on-disk format.
//
// An Index is immutable once built (Builder.Build) or loaded (Load);
// all read methods are safe for concurrent use.
package index

import (
	"encoding/binary"
	"fmt"
)

// DocID is a dense internal document identifier assigned by the
// Builder in insertion order.
type DocID uint32

// Field identifies an indexed field. The engine indexes the ASR
// transcript text and the detector concept labels separately so they
// can be scored and fused independently.
type Field uint8

// The indexed fields.
const (
	FieldText Field = iota
	FieldConcept
	numFields
)

// String names the field.
func (f Field) String() string {
	switch f {
	case FieldText:
		return "text"
	case FieldConcept:
		return "concept"
	}
	return fmt.Sprintf("Field(%d)", uint8(f))
}

// BlockSize is the posting count per self-describing postings block.
// A block's header states its posting count and the byte lengths of its
// doc-delta and tf runs, so it is bounds-checked once and each run then
// decodes in its own tight loop. 128 postings keep both decode runs
// well inside L1 next to the touched accumulator lines.
const BlockSize = 128

// termInfo locates one term's postings inside a field's blob.
type termInfo struct {
	df  uint32 // document frequency
	cf  uint64 // collection frequency (sum of tf)
	off uint64 // byte offset into blob
	n   uint64 // byte length in blob
}

// fieldIndex holds one field's dictionary and postings.
type fieldIndex struct {
	terms    map[string]int32 // term -> index into infos/termList
	infos    []termInfo
	termList []string // sorted unique terms
	blob     []byte   // concatenated block-encoded postings
	docLens  []uint32 // per-doc token count in this field
	totalLen uint64   // sum of docLens
}

// Index is the immutable inverted index.
type Index struct {
	fields [numFields]fieldIndex
	extIDs []string
	ext2id map[string]DocID
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.extIDs) }

// ExternalID maps an internal DocID back to the caller's identifier.
// It panics if d is out of range (programmer error).
func (ix *Index) ExternalID(d DocID) string { return ix.extIDs[d] }

// DocIDOf maps an external identifier to its internal DocID.
func (ix *Index) DocIDOf(ext string) (DocID, bool) {
	d, ok := ix.ext2id[ext]
	return d, ok
}

// DocLen returns the token count of document d in field f.
func (ix *Index) DocLen(f Field, d DocID) int {
	fi := &ix.fields[f]
	if int(d) >= len(fi.docLens) {
		return 0
	}
	return int(fi.docLens[d])
}

// AvgDocLen returns the mean token count of field f across documents.
func (ix *Index) AvgDocLen(f Field) float64 {
	if len(ix.extIDs) == 0 {
		return 0
	}
	return float64(ix.fields[f].totalLen) / float64(len(ix.extIDs))
}

// TotalFieldLen returns the total token count in field f.
func (ix *Index) TotalFieldLen(f Field) int64 { return int64(ix.fields[f].totalLen) }

// NumTerms returns the vocabulary size of field f.
func (ix *Index) NumTerms(f Field) int { return len(ix.fields[f].termList) }

// EachTerm calls fn for every term of field f in sorted order with its
// document and collection frequencies, stopping early when fn returns
// false. It is the bulk form of DocFreq/CollectionFreq used to export
// a segment's full statistics in one pass (the distributed merge tier
// aggregates these at startup).
func (ix *Index) EachTerm(f Field, fn func(term string, df int, cf int64) bool) {
	fi := &ix.fields[f]
	for _, t := range fi.termList {
		info := fi.infos[fi.terms[t]]
		if !fn(t, int(info.df), int64(info.cf)) {
			return
		}
	}
}

// DocFreq returns the number of documents containing term in field f.
func (ix *Index) DocFreq(f Field, term string) int {
	fi := &ix.fields[f]
	if i, ok := fi.terms[term]; ok {
		return int(fi.infos[i].df)
	}
	return 0
}

// CollectionFreq returns the total occurrences of term in field f.
func (ix *Index) CollectionFreq(f Field, term string) int64 {
	fi := &ix.fields[f]
	if i, ok := fi.terms[term]; ok {
		return int64(fi.infos[i].cf)
	}
	return 0
}

// PostingsFor returns an iterator over the (doc, tf) postings of term
// in field f, in ascending DocID order. A term absent from the
// dictionary yields an exhausted iterator. The iterator is returned by
// value so callers on an allocation-free path (the scoring kernel
// iterates one per query term per segment) can keep it on the stack.
func (ix *Index) PostingsFor(f Field, term string) PostingsIterator {
	fi := &ix.fields[f]
	i, ok := fi.terms[term]
	if !ok {
		return PostingsIterator{}
	}
	info := fi.infos[i]
	return PostingsIterator{
		buf:       fi.blob[info.off : info.off+info.n],
		remaining: int(info.df),
	}
}

// DocLens exposes field f's per-document token counts, indexed by
// DocID. The returned slice aliases the index's internal storage and
// MUST be treated as read-only; it stays valid for the index's
// lifetime (the index is immutable). The scoring kernel caches it once
// per segment scan so the per-posting length lookup is a direct slice
// load instead of a method call with its own bounds logic.
func (ix *Index) DocLens(f Field) []uint32 { return ix.fields[f].docLens }

// PostingsIterator decodes a term's block-encoded posting list. Each
// block is self-describing:
//
//	uvarint n         postings in the block (1..BlockSize)
//	uvarint docBytes  byte length of the doc-delta run
//	uvarint tfBytes   byte length of the tf run
//	docRun            n delta/varint doc IDs (deltas continue across blocks)
//	tfRun             n varint term frequencies
//
// The header is checked once against the bytes left, after which
// NextBlock decodes the doc run and the tf run each in its own tight
// loop over a slice it already knows is in bounds.
//
// Usage:
//
//	it := ix.PostingsFor(index.FieldText, "goal")
//	for it.Next() {
//	    use(it.Doc(), it.TF())
//	}
type PostingsIterator struct {
	buf       []byte // undecoded blocks, positioned at the next header
	docRun    []byte // open block: undecoded doc-delta bytes
	tfRun     []byte // open block: undecoded tf bytes
	blockLeft int    // postings not yet consumed from the open block
	remaining int
	cur       DocID
	tf        uint64
	started   bool
}

// exhaust poisons the iterator on malformed input: every subsequent
// call reports exhaustion, never a partial or repeated posting.
func (it *PostingsIterator) exhaust() {
	it.remaining = 0
	it.blockLeft = 0
	it.docRun = nil
	it.tfRun = nil
	it.buf = nil
}

// openBlock parses the next block header and arms the doc/tf runs
// unless the open block still has postings. It reports false when the
// list is exhausted or malformed.
func (it *PostingsIterator) openBlock() bool {
	if it.blockLeft > 0 {
		return true
	}
	if it.remaining <= 0 {
		it.exhaust()
		return false
	}
	buf := it.buf
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		it.exhaust()
		return false
	}
	buf = buf[w:]
	docBytes, w := binary.Uvarint(buf)
	if w <= 0 {
		it.exhaust()
		return false
	}
	buf = buf[w:]
	tfBytes, w := binary.Uvarint(buf)
	if w <= 0 {
		it.exhaust()
		return false
	}
	buf = buf[w:]
	if n == 0 || n > uint64(it.remaining) || n > BlockSize ||
		docBytes > uint64(len(buf)) || tfBytes > uint64(len(buf))-docBytes {
		it.exhaust()
		return false
	}
	it.docRun = buf[:docBytes]
	it.tfRun = buf[docBytes : docBytes+tfBytes]
	it.buf = buf[docBytes+tfBytes:]
	it.blockLeft = int(n)
	return true
}

// nextDoc decodes one doc delta from the open block's doc run.
func (it *PostingsIterator) nextDoc() bool {
	delta, w := binary.Uvarint(it.docRun)
	if w <= 0 {
		it.exhaust()
		return false
	}
	it.docRun = it.docRun[w:]
	if it.started {
		it.cur += DocID(delta)
	} else {
		it.cur = DocID(delta)
		it.started = true
	}
	it.blockLeft--
	it.remaining--
	return true
}

// nextTF decodes one term frequency from the open block's tf run.
func (it *PostingsIterator) nextTF() bool {
	tf, w := binary.Uvarint(it.tfRun)
	if w <= 0 {
		it.exhaust()
		return false
	}
	it.tfRun = it.tfRun[w:]
	it.tf = tf
	return true
}

// Next advances to the next posting; it returns false when exhausted.
func (it *PostingsIterator) Next() bool {
	return it.openBlock() && it.nextDoc() && it.nextTF()
}

// Doc returns the current posting's document. Valid after Next()==true.
func (it *PostingsIterator) Doc() DocID { return it.cur }

// TF returns the current posting's term frequency.
func (it *PostingsIterator) TF() int { return int(it.tf) }

// Remaining reports how many postings have not yet been consumed.
func (it *PostingsIterator) Remaining() int { return it.remaining }

// NextBlock decodes up to min(len(docs), len(tfs)) postings into the
// caller's buffers — docs receive absolute DocIDs (deltas already
// resolved), tfs the matching term frequencies — and returns how many
// postings were written; 0 means the iterator is exhausted. It is the
// bulk form of Next/Doc/TF, reports exactly the postings Next would
// (on malformed input too), and may span several storage blocks.
// NextBlock and Next may be interleaved; both advance the same cursor.
func (it *PostingsIterator) NextBlock(docs []DocID, tfs []uint32) int {
	room := min(len(docs), len(tfs))
	n := 0
	for n < room && it.openBlock() {
		k := min(it.blockLeft, room-n)
		got := it.decodeTFs(tfs[n : n+it.decodeDocs(docs[n:n+k])])
		n += got
		if got < k {
			// Only postings with both halves decoded are reported,
			// exactly as the per-posting path counts them.
			it.exhaust()
			break
		}
		it.blockLeft -= k
		it.remaining -= k
	}
	return n
}

// decodeDocs and decodeTFs each decode the next len(out) values of the
// open block's doc or tf run and return how many were well-formed.
// Each keeps its run cursor in locals and short-circuits single-byte
// varints (the overwhelmingly common case for both block deltas and
// term frequencies), so the per-posting cost on the scoring hot path is
// a bounds check and an add, not a function call.
func (it *PostingsIterator) decodeDocs(out []DocID) int {
	run := it.docRun
	cur := it.cur
	started := it.started
	n := len(out)
	for i := range out {
		var delta uint64
		if len(run) > 0 && run[0] < 0x80 {
			delta = uint64(run[0])
			run = run[1:]
		} else {
			var w int
			delta, w = binary.Uvarint(run)
			if w <= 0 {
				n = i
				break
			}
			run = run[w:]
		}
		if started {
			cur += DocID(delta)
		} else {
			cur = DocID(delta)
			started = true
		}
		out[i] = cur
	}
	it.docRun = run
	it.cur = cur
	it.started = started
	return n
}

func (it *PostingsIterator) decodeTFs(out []uint32) int {
	run := it.tfRun
	tf := it.tf
	n := len(out)
	for i := range out {
		if len(run) > 0 && run[0] < 0x80 {
			tf = uint64(run[0])
			run = run[1:]
		} else {
			var w int
			tf, w = binary.Uvarint(run)
			if w <= 0 {
				n = i
				break
			}
			run = run[w:]
		}
		out[i] = uint32(tf)
	}
	it.tfRun = run
	it.tf = tf
	return n
}

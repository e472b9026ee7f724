package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/binfmt"
)

// On-disk format (version 3):
//
//	magic     8 bytes  "IVRIDX\x00\x03"
//	payload   N bytes  (varint-encoded sections, see below)
//	checksum  4 bytes  big-endian CRC-32 (IEEE) of payload
//
// Payload layout:
//
//	numDocs, then per doc: extID (len-prefixed)
//	per field: docLens[], totalLen, numTerms,
//	           per term (strictly increasing): term, df, cf, postingsLen,
//	           then the field's postings blob.
//
// The postings blob is a run of self-describing blocks, each a
// (n, docBytes, tfBytes) header followed by split doc/tf runs (see
// PostingsIterator). Version 3 dropped the per-block and per-term
// maximum term frequency, which nothing reads. Older versions are
// rejected with ErrBadFormat, not migrated: the servers rebuild their
// indexes from the archive at startup, and an .ivridx written by an
// older ivrgen must be regenerated.
//
// The format is self-contained and position-independent; readers
// reject wrong magic, truncation, checksum mismatches and a dictionary
// out of order.
const magic = "IVRIDX\x00\x03"

// Errors surfaced by the persistence layer.
var (
	ErrBadFormat = errors.New("index: not an index file or unsupported version")
	ErrChecksum  = errors.New("index: checksum mismatch (file corrupt)")
)

var indexFile = binfmt.Container{Magic: magic, ErrFormat: ErrBadFormat, ErrChecksum: ErrChecksum}

// WriteTo serialises the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(ix.encode())
	if err != nil {
		return int64(n), fmt.Errorf("index: write: %w", err)
	}
	return int64(n), nil
}

func (ix *Index) encode() []byte {
	b := indexFile.Begin()
	b = binary.AppendUvarint(b, uint64(len(ix.extIDs)))
	for _, ext := range ix.extIDs {
		b = binfmt.AppendString(b, ext)
	}
	for f := Field(0); f < numFields; f++ {
		fi := &ix.fields[f]
		b = binary.AppendUvarint(b, uint64(len(fi.docLens)))
		for _, l := range fi.docLens {
			b = binary.AppendUvarint(b, uint64(l))
		}
		b = binary.AppendUvarint(b, fi.totalLen)
		b = binary.AppendUvarint(b, uint64(len(fi.termList)))
		for _, t := range fi.termList {
			info := fi.infos[fi.terms[t]]
			b = binfmt.AppendString(b, t)
			b = binary.AppendUvarint(b, uint64(info.df))
			b = binary.AppendUvarint(b, info.cf)
			b = binary.AppendUvarint(b, info.n)
		}
		b = binfmt.AppendBytes(b, fi.blob)
	}
	return indexFile.Seal(b)
}

// Read deserialises an index from r, verifying magic and checksum.
func Read(r io.Reader) (*Index, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: read: %w", err)
	}
	return decode(raw)
}

func decode(raw []byte) (*Index, error) {
	payload, err := indexFile.Open(raw)
	if err != nil {
		return nil, err
	}
	p := binfmt.NewReader(payload)
	numDocs := p.Count(p.Uvarint(), 1)
	ix := &Index{
		extIDs: make([]string, numDocs),
		ext2id: make(map[string]DocID, numDocs),
	}
	for i := range ix.extIDs {
		ext := p.String()
		if _, dup := ix.ext2id[ext]; dup {
			p.Fail(fmt.Errorf("duplicate doc id %q", ext))
		}
		ix.extIDs[i] = ext
		ix.ext2id[ext] = DocID(i)
	}
	for f := Field(0); f < numFields; f++ {
		fi := &ix.fields[f]
		if nLens := p.Uvarint(); nLens != uint64(numDocs) {
			p.Fail(fmt.Errorf("field %v has %d doc lengths for %d docs", f, nLens, numDocs))
		}
		fi.docLens = make([]uint32, p.Count(uint64(numDocs), 1))
		for i := range fi.docLens {
			fi.docLens[i] = uint32(p.Uvarint())
		}
		fi.totalLen = p.Uvarint()
		// A term entry is at least four bytes: a string and three uvarints.
		nTerms := p.Count(p.Uvarint(), 4)
		fi.termList = make([]string, nTerms)
		fi.infos = make([]termInfo, nTerms)
		fi.terms = make(map[string]int32, nTerms)
		var off uint64
		for i := range nTerms {
			term := p.String()
			// EachTerm promises sorted order and the terms map one entry
			// per term, so a repeated or out-of-order term is rejected.
			if i > 0 && term <= fi.termList[i-1] {
				p.Fail(fmt.Errorf("field %v term %q not after %q", f, term, fi.termList[i-1]))
			}
			info := termInfo{df: uint32(p.Uvarint()), cf: p.Uvarint(), off: off}
			// Each extent must fit in the bytes left, so the running
			// offset cannot wrap and a term can never slice past the blob.
			info.n = uint64(p.Count(p.Uvarint(), 1))
			fi.termList[i] = term
			fi.infos[i] = info
			fi.terms[term] = int32(i)
			off += info.n
		}
		if fi.blob = p.Bytes(); uint64(len(fi.blob)) != off {
			p.Fail(fmt.Errorf("field %v blob length %d != postings extent %d", f, len(fi.blob), off))
		}
	}
	if err := p.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFormat, err)
	}
	return ix, nil
}

// Save writes the index atomically and durably (see
// binfmt.WriteFileAtomic).
func (ix *Index) Save(path string) error {
	if err := binfmt.WriteFileAtomic(path, ix.encode()); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// Load reads an index file written by Save/WriteTo.
func Load(path string) (*Index, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	return decode(raw)
}

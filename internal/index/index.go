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
	"sort"
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
// Each block carries its own maximum term frequency, so a scorer can
// bound the best possible contribution of a whole block before
// deciding to decode its term frequencies (block-max early
// termination). 128 postings keep both decode runs well inside L1
// next to the touched accumulator lines.
const BlockSize = 128

// termInfo locates one term's postings inside a field's blob.
type termInfo struct {
	df    uint32 // document frequency
	cf    uint64 // collection frequency (sum of tf)
	maxTF uint32 // maximum tf across the term's postings
	off   uint64 // byte offset into blob
	n     uint64 // byte length in blob
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

// MaxTF returns the largest term frequency of term in any single
// document of field f — the term-wide impact bound block-max early
// termination derives its per-term score ceiling from. Absent terms
// report 0.
func (ix *Index) MaxTF(f Field, term string) uint32 {
	fi := &ix.fields[f]
	if i, ok := fi.terms[term]; ok {
		return fi.infos[i].maxTF
	}
	return 0
}

// Postings returns an iterator over the (doc, tf) postings of term in
// field f, in ascending DocID order. A term absent from the dictionary
// yields an exhausted iterator, never nil.
func (ix *Index) Postings(f Field, term string) *PostingsIterator {
	it := ix.PostingsFor(f, term)
	return &it
}

// PostingsFor is Postings returning the iterator by value, so callers
// on an allocation-free path (the scoring kernel iterates one per query
// term per segment) can keep it on the stack instead of paying a heap
// allocation per term.
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
		termMax:   info.maxTF,
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
//	uvarint maxTF     largest tf in the block
//	uvarint docBytes  byte length of the doc-delta run
//	uvarint tfBytes   byte length of the tf run
//	docRun            n delta/varint doc IDs (deltas continue across blocks)
//	tfRun             n varint term frequencies
//
// Splitting doc IDs and term frequencies into separate runs is what
// makes block-max early termination cheap: candidate discovery always
// decodes the doc run (candidate counts stay exact), while a block
// whose maxTF-derived score bound cannot reach the current top-k floor
// skips its tf run — and all scoring arithmetic — entirely.
//
// Usage:
//
//	it := ix.Postings(index.FieldText, "goal")
//	for it.Next() {
//	    use(it.Doc(), it.TF())
//	}
type PostingsIterator struct {
	buf       []byte // undecoded blocks, positioned at the next header
	docRun    []byte // open block: undecoded doc-delta bytes
	tfRun     []byte // open block: undecoded tf bytes
	blockLeft int    // postings not yet consumed from the open block's doc run
	tfLeft    int    // values not yet consumed from the open block's tf run
	blockMax  uint32 // open block's max tf
	termMax   uint32 // term-wide max tf
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
	it.tfLeft = 0
	it.docRun = nil
	it.tfRun = nil
	it.buf = nil
}

// openBlock parses the next block header and arms the doc/tf runs. Any
// pending (skipped) tf run of the previous block is dropped. It
// reports false when the list is exhausted or malformed.
func (it *PostingsIterator) openBlock() bool {
	if it.blockLeft > 0 {
		return true
	}
	if it.remaining <= 0 || len(it.buf) == 0 {
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
	maxTF, w := binary.Uvarint(buf)
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
		docBytes+tfBytes > uint64(len(buf)) {
		it.exhaust()
		return false
	}
	it.docRun = buf[:docBytes]
	it.tfRun = buf[docBytes : docBytes+tfBytes]
	it.buf = buf[docBytes+tfBytes:]
	it.blockLeft = int(n)
	it.tfLeft = int(n)
	it.blockMax = uint32(maxTF)
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
	it.tfLeft--
	return true
}

// Next advances to the next posting; it returns false when exhausted.
func (it *PostingsIterator) Next() bool {
	if it.blockLeft == 0 && !it.openBlock() {
		return false
	}
	return it.nextDoc() && it.nextTF()
}

// Doc returns the current posting's document. Valid after Next()==true.
func (it *PostingsIterator) Doc() DocID { return it.cur }

// TF returns the current posting's term frequency.
func (it *PostingsIterator) TF() int { return int(it.tf) }

// Remaining reports how many postings have not yet been consumed.
func (it *PostingsIterator) Remaining() int { return it.remaining }

// MaxTF returns the term-wide maximum term frequency (0 for an
// exhausted/absent-term iterator).
func (it *PostingsIterator) MaxTF() uint32 { return it.termMax }

// BlockBound opens the next block if none is pending and reports its
// undecoded posting count and its maximum term frequency. ok == false
// means the list is exhausted. The block is not consumed; follow with
// DecodeBlockDocs (+ DecodeBlockTFs) or Next.
func (it *PostingsIterator) BlockBound() (n int, maxTF uint32, ok bool) {
	if !it.openBlock() {
		return 0, 0, false
	}
	return it.blockLeft, it.blockMax, true
}

// DecodeBlockDocs decodes the open block's remaining doc IDs (deltas
// resolved to absolute DocIDs) into docs, which must have room for
// BlockBound's count, and returns how many were written. The block's
// tf run stays pending: call DecodeBlockTFs to score it, or simply
// advance to the next block to skip it — the skip is free, which is
// the point of the split-run layout.
//
// The decode loop keeps the run cursor in locals and short-circuits
// single-byte varints (the overwhelmingly common case for both block
// deltas and term frequencies) so the per-posting cost on the scoring
// hot path is a bounds check and an add, not a function call.
func (it *PostingsIterator) DecodeBlockDocs(docs []DocID) int {
	n := it.blockLeft
	if n > len(docs) {
		n = len(docs)
	}
	run := it.docRun
	cur := it.cur
	started := it.started
	for i := 0; i < n; i++ {
		var delta uint64
		if len(run) > 0 && run[0] < 0x80 {
			delta = uint64(run[0])
			run = run[1:]
		} else {
			var w int
			delta, w = binary.Uvarint(run)
			if w <= 0 {
				it.cur = cur
				it.started = started
				it.exhaust()
				return i
			}
			run = run[w:]
		}
		if started {
			cur += DocID(delta)
		} else {
			cur = DocID(delta)
			started = true
		}
		docs[i] = cur
	}
	it.docRun = run
	it.cur = cur
	it.started = started
	it.blockLeft -= n
	it.remaining -= n
	return n
}

// DecodeBlockTFs decodes the open block's pending tf run into tfs
// (aligned index-for-index with the docs DecodeBlockDocs produced) and
// returns how many were written.
func (it *PostingsIterator) DecodeBlockTFs(tfs []uint32) int {
	n := it.tfLeft
	if n > len(tfs) {
		n = len(tfs)
	}
	run := it.tfRun
	tf := it.tf
	for i := 0; i < n; i++ {
		if len(run) > 0 && run[0] < 0x80 {
			tf = uint64(run[0])
			run = run[1:]
		} else {
			var w int
			tf, w = binary.Uvarint(run)
			if w <= 0 {
				it.exhaust()
				return i
			}
			run = run[w:]
		}
		tfs[i] = uint32(tf)
	}
	it.tfRun = run
	it.tf = tf
	it.tfLeft -= n
	return n
}

// NextBlock decodes up to min(len(docs), len(tfs)) postings into the
// caller's buffers — docs receive absolute DocIDs (deltas already
// resolved), tfs the matching term frequencies — and returns how many
// postings were written; 0 means the iterator is exhausted. It is the
// bulk form of Next/Doc/TF and may span several storage blocks.
// NextBlock and Next may be interleaved; both advance the same cursor.
func (it *PostingsIterator) NextBlock(docs []DocID, tfs []uint32) int {
	max := len(docs)
	if len(tfs) < max {
		max = len(tfs)
	}
	n := 0
	for n < max {
		if it.blockLeft == 0 && !it.openBlock() {
			break
		}
		nd := it.DecodeBlockDocs(docs[n:max])
		nt := it.DecodeBlockTFs(tfs[n : n+nd])
		n += nt
		if nt < nd || nd == 0 {
			// A truncated tf run poisons the iterator (exhaust); only
			// postings with both halves decoded are reported, exactly as
			// the per-posting path counts them.
			break
		}
	}
	return n
}

// finish freezes a fieldIndex: sorts the dictionary and rewrites the
// term->index map to the sorted order.
func (fi *fieldIndex) finishTermList() {
	fi.termList = make([]string, 0, len(fi.terms))
	for t := range fi.terms {
		fi.termList = append(fi.termList, t)
	}
	sort.Strings(fi.termList)
}

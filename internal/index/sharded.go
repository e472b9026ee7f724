package index

import "fmt"

// Sharded is an inverted index split into N self-contained segments.
// Each segment is a complete *Index over a disjoint subset of the
// documents — its own dictionary, postings blob and length statistics
// — so segments can be scored independently (and in parallel) by the
// search layer. Collection-wide statistics (document count, document
// frequencies, field lengths) are aggregated across segments, which is
// what keeps sharded scoring numerically identical to scoring one
// monolithic index.
//
// Documents are assigned to segments round-robin in insertion order
// (NewSharded checks the resulting segment sizes), so the global DocID of the j-th
// document of segment i is j*NumSegments+i: exactly the document's
// insertion position. A Sharded index built from the same document
// stream as a single Index therefore agrees with it on every global
// DocID and external ID.
//
// Like Index, a Sharded is immutable once built and safe for
// concurrent use.
type Sharded struct {
	segs    []*Index
	numDocs int
}

// NewSharded assembles segments produced by a round-robin split of one
// document stream. It validates the round-robin size invariant
// (|seg i| = ceil/floor of total/N depending on i) and external-ID
// uniqueness across segments, because the global DocID arithmetic and
// reverse lookups depend on both.
func NewSharded(segs []*Index) (*Sharded, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("index: sharded index needs at least one segment")
	}
	total := 0
	for _, seg := range segs {
		if seg == nil {
			return nil, fmt.Errorf("index: nil segment")
		}
		total += seg.NumDocs()
	}
	n := len(segs)
	for i, seg := range segs {
		want := total / n
		if i < total%n {
			want++
		}
		if seg.NumDocs() != want {
			return nil, fmt.Errorf("index: segment %d holds %d docs, round-robin split of %d over %d expects %d",
				i, seg.NumDocs(), total, n, want)
		}
	}
	seen := make(map[string]bool, total)
	for i, seg := range segs {
		for d := 0; d < seg.NumDocs(); d++ {
			ext := seg.ExternalID(DocID(d))
			if seen[ext] {
				return nil, fmt.Errorf("index: external id %q appears in more than one segment (segment %d)", ext, i)
			}
			seen[ext] = true
		}
	}
	return &Sharded{segs: segs, numDocs: total}, nil
}

// NumSegments returns the segment count.
func (s *Sharded) NumSegments() int { return len(s.segs) }

// Segment returns segment i (read-only use).
func (s *Sharded) Segment(i int) *Index { return s.segs[i] }

// NumDocs returns the total document count across segments.
func (s *Sharded) NumDocs() int { return s.numDocs }

// GlobalID converts a segment-local DocID to the global (insertion
// order) DocID.
func (s *Sharded) GlobalID(segment int, local DocID) DocID {
	return local*DocID(len(s.segs)) + DocID(segment)
}

// ExternalID maps a global DocID back to the caller's identifier. It
// panics if d is out of range (programmer error), matching Index.
func (s *Sharded) ExternalID(d DocID) string {
	n := DocID(len(s.segs))
	return s.segs[d%n].ExternalID(d / n)
}

// DocIDOf maps an external identifier to its global DocID.
func (s *Sharded) DocIDOf(ext string) (DocID, bool) {
	for i, seg := range s.segs {
		if local, ok := seg.DocIDOf(ext); ok {
			return s.GlobalID(i, local), true
		}
	}
	return 0, false
}

// DocLen returns the token count of the document with global DocID d
// in field f.
func (s *Sharded) DocLen(f Field, d DocID) int {
	n := DocID(len(s.segs))
	return s.segs[d%n].DocLen(f, d/n)
}

// AvgDocLen returns the collection-wide mean token count of field f.
func (s *Sharded) AvgDocLen(f Field) float64 {
	if s.numDocs == 0 {
		return 0
	}
	return float64(s.TotalFieldLen(f)) / float64(s.numDocs)
}

// TotalFieldLen returns the total token count of field f across all
// segments.
func (s *Sharded) TotalFieldLen(f Field) int64 {
	var total int64
	for _, seg := range s.segs {
		total += seg.TotalFieldLen(f)
	}
	return total
}

// DocFreq returns the collection-wide document frequency of term in
// field f.
func (s *Sharded) DocFreq(f Field, term string) int {
	df := 0
	for _, seg := range s.segs {
		df += seg.DocFreq(f, term)
	}
	return df
}

// CollectionFreq returns the collection-wide occurrence count of term
// in field f.
func (s *Sharded) CollectionFreq(f Field, term string) int64 {
	var cf int64
	for _, seg := range s.segs {
		cf += seg.CollectionFreq(f, term)
	}
	return cf
}

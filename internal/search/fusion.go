package search

import "slices"

// Fuser combines multiple ranked lists over the same document space
// into one. Implementations must be deterministic.
type Fuser interface {
	Name() string
	// fuse maps each document ID to its combined score given its
	// per-list normalised scores and ranks.
	fuse(entries map[string][]fuseEntry) map[string]float64
}

// fuseEntry is one document's appearance in one input list.
type fuseEntry struct {
	// score is min-max normalised within its list to [0,1].
	score float64
	// rank is the zero-based position in its list.
	rank int
}

// Fuse combines ranked lists with the given fuser and returns the top
// k fused hits (score-descending, ID ties ascending). Input lists are
// not modified. Lists may have different lengths; empty lists are
// ignored.
func Fuse(f Fuser, lists [][]Hit, k int) []Hit {
	entries := make(map[string][]fuseEntry)
	for _, list := range lists {
		if len(list) == 0 {
			continue
		}
		lo, hi := list[len(list)-1].Score, list[0].Score
		span := hi - lo
		for rank, h := range list {
			norm := 1.0
			if span > 0 {
				norm = (h.Score - lo) / span
			}
			entries[h.ID] = append(entries[h.ID], fuseEntry{score: norm, rank: rank})
		}
	}
	scores := f.fuse(entries)
	top := NewTopK(k)
	for id, s := range scores {
		top.Offer(Hit{ID: id, Score: s})
	}
	return top.Ranked()
}

// CombSUM sums normalised scores across lists.
type CombSUM struct{}

// Name implements Fuser.
func (CombSUM) Name() string { return "combsum" }

func (CombSUM) fuse(entries map[string][]fuseEntry) map[string]float64 {
	out := make(map[string]float64, len(entries))
	for id, es := range entries {
		var s float64
		for _, e := range es {
			s += e.score
		}
		out[id] = s
	}
	return out
}

// CombMNZ multiplies the CombSUM score by the number of lists the
// document appears in, rewarding multi-evidence agreement.
type CombMNZ struct{}

// Name implements Fuser.
func (CombMNZ) Name() string { return "combmnz" }

func (CombMNZ) fuse(entries map[string][]fuseEntry) map[string]float64 {
	out := make(map[string]float64, len(entries))
	for id, es := range entries {
		var s float64
		for _, e := range es {
			s += e.score
		}
		out[id] = s * float64(len(es))
	}
	return out
}

// Borda assigns each document max(0, L-rank) points per list of
// nominal length L (the longest input list).
type Borda struct{}

// Name implements Fuser.
func (Borda) Name() string { return "borda" }

func (Borda) fuse(entries map[string][]fuseEntry) map[string]float64 {
	maxLen := 0
	for _, es := range entries {
		for _, e := range es {
			if e.rank+1 > maxLen {
				maxLen = e.rank + 1
			}
		}
	}
	out := make(map[string]float64, len(entries))
	for id, es := range entries {
		var s float64
		for _, e := range es {
			s += float64(maxLen - e.rank)
		}
		out[id] = s
	}
	return out
}

// RRF is reciprocal rank fusion: sum of 1/(K+rank+1) with the standard
// K=60 damping.
type RRF struct {
	// K is the damping constant; zero selects 60.
	K float64
}

// Name implements Fuser.
func (RRF) Name() string { return "rrf" }

func (r RRF) fuse(entries map[string][]fuseEntry) map[string]float64 {
	k := r.K
	if k == 0 {
		k = 60
	}
	out := make(map[string]float64, len(entries))
	for id, es := range entries {
		var s float64
		for _, e := range es {
			s += 1 / (k + float64(e.rank) + 1)
		}
		out[id] = s
	}
	return out
}

// WeightedHits scales a hit list's scores by w, returning a new list;
// used to weight evidence sources before CombSUM fusion.
func WeightedHits(hits []Hit, w float64) []Hit {
	out := make([]Hit, len(hits))
	for i, h := range hits {
		h.Score *= w
		out[i] = h
	}
	return out
}

// Rescore adds alpha*boost(h) to each hit's score in place, then
// restores rank order only if a boost broke it. It is the primitive the
// profile re-ranker is built from.
func Rescore(hits []Hit, alpha float64, boost func(Hit) float64) {
	ordered := true
	for i := range hits {
		hits[i].Score += alpha * boost(hits[i])
		if i > 0 && hitLess(hits[i], hits[i-1]) {
			ordered = false
		}
	}
	if !ordered {
		slices.SortFunc(hits, hitCompare)
	}
}

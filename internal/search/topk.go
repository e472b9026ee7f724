package search

import "slices"

// hitLess orders hits for final ranking: higher score first, then
// ascending ID so equal-scored runs are reproducible across processes.
func hitLess(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// hitCompare is hitLess as a three-way comparison for slices.SortFunc.
func hitCompare(a, b Hit) int {
	if hitLess(a, b) {
		return -1
	}
	if hitLess(b, a) {
		return 1
	}
	return 0
}

// TopK is a bounded min-heap keeping the K best hits seen so far: the
// streaming alternative to sorting a full candidate list and cutting
// it to K (O(n log k) instead of O(n log n), and O(k) memory). Because
// (score desc, ID asc) is a total order, the kept set — and therefore
// Ranked's output — is independent of Offer order. Fusion, the graph
// recommenders and the merge tier's filtered remote path collect
// through it; the scoring kernel and the engine merge select on
// pointer-free keys and ranked lists instead.
//
// The heap is hand-rolled over []Hit rather than container/heap: the
// standard interface moves elements through `any`, which boxes every
// offered Hit onto the heap. A TopK is single-goroutine.
type TopK struct {
	k    int
	heap []Hit // min-heap by rank quality: heap[0] is the worst kept hit
}

// NewTopK returns an empty collector bounded to the k best hits.
func NewTopK(k int) *TopK { return &TopK{k: k} }

// Offer considers one hit.
func (t *TopK) Offer(h Hit) {
	if t.k <= 0 {
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, h)
		t.up(len(t.heap) - 1)
		return
	}
	// The heap root is the current worst of the kept set; replace it
	// when the candidate ranks strictly better.
	if hitLess(h, t.heap[0]) {
		t.heap[0] = h
		t.down(0)
	}
}

// up restores the heap property from leaf i toward the root. The heap
// order inverts hitLess: a node ranks no better than its children.
func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !hitLess(t.heap[parent], t.heap[i]) {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

// down restores the heap property from node i toward the leaves.
func (t *TopK) down(i int) {
	n := len(t.heap)
	for {
		worst := i
		if l := 2*i + 1; l < n && hitLess(t.heap[worst], t.heap[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && hitLess(t.heap[worst], t.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// Ranked extracts the kept hits in final rank order (the collector is
// left intact). The result is never nil, so an empty ranking encodes
// as [] on the JSON surfaces.
func (t *TopK) Ranked() []Hit {
	out := append(make([]Hit, 0, len(t.heap)), t.heap...)
	slices.SortFunc(out, hitCompare)
	return out
}

package search

import (
	"cmp"
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/overload"
)

// The scoring kernel. The adaptive loop re-runs retrieval after every
// implicit-feedback event, so uncached query scoring is the system's
// hottest path. This file compiles a (Query, []TermStats, Scorer)
// triple into a PreparedQuery — per-term scoring constants hoisted out
// of the posting loop, so the inner loop is pure arithmetic with no
// interface dispatch — and scores segments through dense, pooled
// accumulator state instead of a per-query map.
//
// Everything here is pinned bit-identical to the straightforward
// map-accumulator + interface-dispatch scan (kept as the reference
// oracle in the parity tests): constants are hoisted only where the
// floating-point operation order is provably unchanged, and documents
// accumulate term contributions in query-term order exactly as before.

// scorerKind selects the compiled inner loop.
type scorerKind uint8

const (
	// kindGeneric scores through the Scorer interface per posting —
	// the fallback for scorer implementations the compiler does not
	// know. Correct for any Scorer, but pays interface dispatch.
	kindGeneric scorerKind = iota
	kindBM25
	kindTFIDF
	kindDirichlet
)

// kernelTerm is one query term's compiled scoring state. The float
// constants are kind-specific; unused ones stay zero.
type kernelTerm struct {
	term string
	// ti indexes the original stats slice (generic path).
	ti int
	// zero marks a term whose every contribution is exactly +0 but
	// whose postings must still be walked, because touching a document
	// registers it as a candidate (Dirichlet with CF == 0: the oracle
	// adds 0.0 through the map, which makes the doc a candidate).
	zero bool

	// BM25: wIdf = Weight*idf, k1p1 = K1+1, k1, b, oneMinusB = 1-b,
	// maxAvg = max(AvgDocLen, 1e-9).
	// TFIDF: weight, idf.
	// Dirichlet: weight, muPc = mu * (CF/TotalLen).
	wIdf      float64
	k1p1      float64
	k1        float64
	b         float64
	oneMinusB float64
	maxAvg    float64
	weight    float64
	idf       float64
	muPc      float64
}

// PreparedQuery is a query compiled for the scoring kernel: the
// original (Query, []TermStats, Scorer) triple — still exposed for
// wire serialisation and reference scoring — plus per-term constants
// with all document-independent arithmetic (IDF, BM25 saturation
// constants, Dirichlet collection models) precomputed, so scoring a
// posting costs a few multiplications and no interface calls.
//
// The engine compiles once per query and hands the same PreparedQuery
// to every segment worker; the distributed segment servers compile
// from the identical wire statistics, so both sides of the process
// boundary run the same kernel on the same constants. A PreparedQuery
// is immutable after PrepareQuery and safe for concurrent use.
type PreparedQuery struct {
	query  Query
	stats  []TermStats
	scorer Scorer

	kind  scorerKind
	terms []kernelTerm
	sumW  float64
	mu    float64 // Dirichlet doc-score smoothing mass
}

// PrepareQuery compiles a query against precomputed global term
// statistics (parallel to q.Terms) for a scorer. Terms with DF == 0 or
// zero weight are dropped at compile time, mirroring the scan's skip
// condition.
func PrepareQuery(q Query, stats []TermStats, scorer Scorer) *PreparedQuery {
	kernelCounters.compiles.Add(1)
	p := &PreparedQuery{
		query:  q,
		stats:  stats,
		scorer: scorer,
		sumW:   q.SumWeights(),
		terms:  make([]kernelTerm, 0, len(q.Terms)),
	}
	switch s := scorer.(type) {
	case BM25:
		p.kind = kindBM25
		k1, b := s.params()
		for ti, t := range q.Terms {
			if stats[ti].DF == 0 || t.Weight == 0 {
				continue
			}
			st := stats[ti]
			idf := math.Log(1 + (float64(st.N)-float64(st.DF)+0.5)/(float64(st.DF)+0.5))
			p.terms = append(p.terms, kernelTerm{
				term: t.Term, ti: ti,
				wIdf: st.Weight * idf, k1p1: k1 + 1, k1: k1, b: b,
				oneMinusB: 1 - b, maxAvg: math.Max(st.AvgDocLen, 1e-9),
			})
		}
	case TFIDF:
		p.kind = kindTFIDF
		for ti, t := range q.Terms {
			if stats[ti].DF == 0 || t.Weight == 0 {
				continue
			}
			st := stats[ti]
			p.terms = append(p.terms, kernelTerm{
				term: t.Term, ti: ti,
				weight: st.Weight,
				idf:    math.Log(float64(st.N+1) / float64(st.DF)),
			})
		}
	case DirichletLM:
		p.kind = kindDirichlet
		p.mu = s.mu()
		for ti, t := range q.Terms {
			if stats[ti].DF == 0 || t.Weight == 0 {
				continue
			}
			st := stats[ti]
			kt := kernelTerm{term: t.Term, ti: ti, weight: st.Weight}
			if st.CF == 0 || st.TotalLen == 0 {
				// The reference TermScore returns 0 here, but the scan
				// still walks the postings and registers candidates.
				kt.zero = true
			} else {
				pc := float64(st.CF) / float64(st.TotalLen)
				kt.muPc = p.mu * pc
			}
			p.terms = append(p.terms, kt)
		}
	default:
		p.kind = kindGeneric
		for ti, t := range q.Terms {
			if stats[ti].DF == 0 || t.Weight == 0 {
				continue
			}
			p.terms = append(p.terms, kernelTerm{term: t.Term, ti: ti})
		}
	}
	return p
}

// Query returns the original query.
func (p *PreparedQuery) Query() Query { return p.query }

// Stats returns the global term statistics the query was compiled
// against (parallel to Query().Terms; read-only).
func (p *PreparedQuery) Stats() []TermStats { return p.stats }

// Scorer returns the scorer the query was compiled for.
func (p *PreparedQuery) Scorer() Scorer { return p.scorer }

// kernelBlock bounds one postings decode burst: one storage block, so
// the scratch (128*4 + 128*4 bytes) stays inside L1 alongside the
// touched accumulator lines and a burst is a unit BlocksScored counts.
const kernelBlock = index.BlockSize

// accumulator is the dense per-segment scoring state, recycled through
// accPool. scores holds one float64 per segment document; epochs marks
// which entries belong to the current query (an entry is live iff
// epochs[d] == epoch), so "clearing" between queries is one counter
// increment — O(touched candidates), never O(numDocs). touched lists
// the live DocIDs for the candidate sweep.
type accumulator struct {
	scores  []float64
	epochs  []uint32
	epoch   uint32
	touched []index.DocID

	// postings decode scratch, kept alongside the accumulator so one
	// pool Get arms the whole per-segment scan.
	docBuf [kernelBlock]index.DocID
	tfBuf  [kernelBlock]uint32

	// Top-k selection scratch: keys holds each candidate's final score
	// beside its local DocID, best a min-heap over the k best scores
	// (see cut). Both are pointer-free, so selection never touches an
	// ID string.
	keys []rankKey
	best []float64
}

// rankKey is one candidate in the top-k selection: its final score and
// its segment-local DocID.
type rankKey struct {
	score float64
	doc   index.DocID
}

// rankKeyCompare orders keys by descending score (NaN last), then by
// ascending DocID. It is the pointer-free stand-in for the canonical
// (score, ID) order; fixTieRuns repairs the one place they differ.
func rankKeyCompare(a, b rankKey) int {
	if c := cmp.Compare(b.score, a.score); c != 0 {
		return c
	}
	return cmp.Compare(a.doc, b.doc)
}

// reset arms the accumulator for a segment of n documents.
func (a *accumulator) reset(n int) {
	if cap(a.scores) < n {
		a.scores = make([]float64, n)
		a.epochs = make([]uint32, n)
	} else {
		a.scores = a.scores[:n]
		a.epochs = a.epochs[:n]
	}
	a.epoch++
	if a.epoch == 0 {
		// uint32 wraparound: stale entries could alias the new epoch,
		// so pay one full clear every 2^32 queries. Clear the whole
		// capacity, not just [:n] — a later reset for a larger segment
		// would otherwise see pre-wrap values beyond n.
		clear(a.epochs[:cap(a.epochs)])
		a.epoch = 1
	}
	a.touched = a.touched[:0]
}

// add accumulates a term contribution for document d. First touch in
// this epoch initialises the slot (0 + s == s bit-identically for
// every non-negative s, matching the map oracle's zero-value add).
func (a *accumulator) add(d index.DocID, s float64) {
	if a.epochs[d] != a.epoch {
		a.epochs[d] = a.epoch
		a.scores[d] = s
		a.touched = append(a.touched, d)
	} else {
		a.scores[d] += s
	}
}

// cut keeps the keys scoring at or above the k-th best score (k <
// len(keys)): every member of the top k plus any key tied with the
// k-th, which the caller orders by ID. The k-th best score comes from
// a bounded min-heap of floats, so the common candidate costs one
// compare against the root. NaN enters the heap as -Inf, which can
// only lower the threshold; a lower threshold keeps extra keys, never
// drops a member of the top k.
func (a *accumulator) cut(keys []rankKey, k int) []rankKey {
	h := a.best[:0]
	for _, key := range keys {
		s := key.score
		if s != s {
			s = math.Inf(-1)
		}
		if len(h) < k {
			// Growing phase: push and sift up.
			h = append(h, s)
			i := len(h) - 1
			for i > 0 {
				p := (i - 1) / 2
				if h[p] <= s {
					break
				}
				h[i] = h[p]
				i = p
			}
			h[i] = s
			continue
		}
		if s <= h[0] {
			continue
		}
		// Replace the root and sift the new value down.
		i, n := 0, len(h)
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r] < h[l] {
				l = r
			}
			if h[l] >= s {
				break
			}
			h[i] = h[l]
			i = l
		}
		h[i] = s
	}
	theta := h[0]
	a.best = h
	kept := keys[:0]
	for _, key := range keys {
		if !(key.score < theta) {
			kept = append(kept, key)
		}
	}
	return kept
}

// fixTieRuns restores the canonical order inside each run of exactly
// equal scores, which rankKeyCompare left in DocID order: ties rank by
// ascending external ID, so equal-scored runs are reproducible across
// any segmentation and across processes.
func fixTieRuns(hits []Hit) {
	for i := 0; i < len(hits); {
		j := i + 1
		for j < len(hits) && hits[j].Score == hits[i].Score {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(hits[i:j], func(a, b Hit) int { return strings.Compare(a.ID, b.ID) })
		}
		i = j
	}
}

// Pools. Both cycle through sync.Pool so a steady-state query
// allocates nothing for accumulator state or hit slices; the counters
// feed the kernel block of /api/v1/metrics.
var (
	accPool  = sync.Pool{New: func() any { kernelCounters.accAllocs.Add(1); return new(accumulator) }}
	hitsPool = sync.Pool{New: func() any {
		kernelCounters.hitsAllocs.Add(1)
		s := make([]Hit, 0, DefaultK)
		return &s
	}}
	// hitsBoxPool recycles the *[]Hit headers themselves: getHits hands
	// out a naked slice, so RecycleHits would otherwise re-box it (one
	// heap allocation per recycle — the very cost the pool removes).
	// Empty boxes cycle here between a Get and the matching Recycle.
	hitsBoxPool = sync.Pool{New: func() any { return new([]Hit) }}
)

func getAccumulator(n int) *accumulator {
	kernelCounters.accGets.Add(1)
	a := accPool.Get().(*accumulator)
	a.reset(n)
	return a
}

func putAccumulator(a *accumulator) { accPool.Put(a) }

// getHits returns an empty, non-nil hit slice with pooled backing
// storage, parking the emptied box for RecycleHits to reuse.
func getHits() []Hit {
	kernelCounters.hitsGets.Add(1)
	bp := hitsPool.Get().(*[]Hit)
	s := (*bp)[:0]
	*bp = nil
	hitsBoxPool.Put(bp)
	return s
}

// RecycleHits hands a hit slice back to the kernel's pool. Callers
// must not retain any reference to the slice afterwards. The engine
// recycles per-segment hit lists after merging them; the distributed
// segment server recycles after encoding the wire response. Recycling
// is always optional — an unreturned slice is ordinary garbage.
func RecycleHits(hits []Hit) {
	if cap(hits) == 0 {
		return
	}
	bp := hitsBoxPool.Get().(*[]Hit)
	*bp = hits[:0]
	hitsPool.Put(bp)
}

// kernelStatsCounters aggregates kernel pool telemetry (atomics; the
// hot path only ever increments).
type kernelStatsCounters struct {
	compiles     atomic.Int64
	scans        atomic.Int64
	accGets      atomic.Int64
	accAllocs    atomic.Int64
	hitsGets     atomic.Int64
	hitsAllocs   atomic.Int64
	blocksScored atomic.Int64
}

var kernelCounters kernelStatsCounters

// KernelStats is a snapshot of the scoring kernel's pool telemetry:
// Compiles counts PrepareQuery calls, Scans counts per-segment kernel
// executions, and each pool reports how many Gets it served against
// how many backing objects it ever had to allocate — a healthy steady
// state shows Allocs plateauing while Gets grows. BlocksScored counts
// postings blocks decoded and scored. BlocksSkipped is always 0: the
// kernel scans every block (block-max skipping was removed after it
// skipped under 1% of blocks at K = 200); the field stays for scrapers
// that read it.
type KernelStats struct {
	Compiles        int64 `json:"compiles"`
	SegmentScans    int64 `json:"segment_scans"`
	AccumulatorGets int64 `json:"accumulator_gets"`
	AccumulatorNews int64 `json:"accumulator_allocs"`
	HitSliceGets    int64 `json:"hit_slice_gets"`
	HitSliceNews    int64 `json:"hit_slice_allocs"`
	BlocksScored    int64 `json:"blocks_scored"`
	BlocksSkipped   int64 `json:"blocks_skipped"`
}

// ReadKernelStats snapshots the process-wide kernel telemetry.
func ReadKernelStats() KernelStats {
	return KernelStats{
		Compiles:        kernelCounters.compiles.Load(),
		SegmentScans:    kernelCounters.scans.Load(),
		AccumulatorGets: kernelCounters.accGets.Load(),
		AccumulatorNews: kernelCounters.accAllocs.Load(),
		HitSliceGets:    kernelCounters.hitsGets.Load(),
		HitSliceNews:    kernelCounters.hitsAllocs.Load(),
		BlocksScored:    kernelCounters.blocksScored.Load(),
	}
}

// ScoreSegment runs the compiled kernel over one in-memory index
// segment: term-at-a-time accumulation of every postings block into
// the dense pooled accumulator, then the segment-local top-k cut.
// globalID converts the segment's local doc IDs to engine-wide IDs;
// k <= 0 keeps every candidate. The returned hits are in rank order
// (score descending, ties by ascending ID). Rankings, scores and
// candidate counts are bit-identical to the reference map scan (see
// ScoreIndexSegment's contract); the parity suite pins this per
// scorer, seed, K, segment count and tie pattern.
//
// The cut works on floats: each candidate's final score sits beside
// its local DocID in a pointer-free key, a bounded heap of scores finds
// the k-th best, and only the keys at or above it are sorted and
// resolved to external IDs. IDs are compared only inside runs of
// exactly equal scores, so an ID string is touched only for a document
// that is returned or tied at the cut. A filter, which judges IDs,
// resolves every candidate's ID.
//
// The returned SegmentResult.Hits may come from the kernel's slice
// pool; hand it back with RecycleHits once it is dead.
func (p *PreparedQuery) ScoreSegment(seg *index.Index, globalID func(index.DocID) index.DocID,
	filter func(string) bool, k int) SegmentResult {
	res, _ := p.scoreSegment(nil, seg, globalID, filter, k)
	return res
}

// ScoreSegmentContext is ScoreSegment with a deadline seam: when the
// context carries an overload.Budget, the per-block scan loop polls it
// and aborts with overload.ErrDeadlineExceeded the moment the budget
// is spent — an expired request stops burning CPU mid-segment instead
// of finishing a ranking nobody is waiting for. Without a budget the
// checkpoint is a nil-receiver check per block, so the idle hot path
// is unchanged (the alloc-budget and bench suites pin this).
func (p *PreparedQuery) ScoreSegmentContext(ctx context.Context, seg *index.Index,
	globalID func(index.DocID) index.DocID, filter func(string) bool, k int) (SegmentResult, error) {
	b := overload.FromContext(ctx)
	if b.Expired() {
		return SegmentResult{}, overload.ErrDeadlineExceeded
	}
	return p.scoreSegment(b, seg, globalID, filter, k)
}

func (p *PreparedQuery) scoreSegment(b *overload.Budget, seg *index.Index, globalID func(index.DocID) index.DocID,
	filter func(string) bool, k int) (SegmentResult, error) {
	kernelCounters.scans.Add(1)
	acc := getAccumulator(seg.NumDocs())
	docLens := seg.DocLens(p.query.Field)
	blocks := int64(0)
	expired := false
	for i := range p.terms {
		kt := &p.terms[i]
		it := seg.PostingsFor(p.query.Field, kt.term)
		for {
			if b.Expired() {
				expired = true
				break
			}
			n := it.NextBlock(acc.docBuf[:], acc.tfBuf[:])
			if n == 0 {
				break
			}
			blocks++
			switch p.kind {
			case kindBM25:
				for j := 0; j < n; j++ {
					d := acc.docBuf[j]
					tf := float64(acc.tfBuf[j])
					norm := kt.k1 * (kt.oneMinusB + kt.b*float64(docLens[d])/kt.maxAvg)
					acc.add(d, kt.wIdf*(tf*kt.k1p1)/(tf+norm))
				}
			case kindTFIDF:
				for j := 0; j < n; j++ {
					d := acc.docBuf[j]
					ltf := 1 + math.Log(float64(acc.tfBuf[j]))
					acc.add(d, kt.weight*ltf*kt.idf/math.Sqrt(math.Max(float64(docLens[d]), 1)))
				}
			case kindDirichlet:
				for j := 0; j < n; j++ {
					d := acc.docBuf[j]
					if kt.zero {
						acc.add(d, 0)
						continue
					}
					acc.add(d, kt.weight*math.Log(1+float64(acc.tfBuf[j])/kt.muPc))
				}
			default: // kindGeneric: per-posting interface dispatch
				st := p.stats[kt.ti]
				for j := 0; j < n; j++ {
					d := acc.docBuf[j]
					acc.add(d, p.scorer.TermScore(st, int(acc.tfBuf[j]), int(docLens[d])))
				}
			}
		}
		if expired {
			break
		}
	}
	kernelCounters.blocksScored.Add(blocks)
	if expired {
		putAccumulator(acc)
		return SegmentResult{}, overload.ErrDeadlineExceeded
	}
	keys := acc.keys[:0]
	for _, d := range acc.touched {
		if filter != nil && !filter(seg.ExternalID(d)) {
			continue
		}
		score := acc.scores[d]
		switch p.kind {
		case kindDirichlet:
			score += p.sumW * math.Log(p.mu/(float64(docLens[d])+p.mu))
		case kindGeneric:
			score += p.scorer.DocScore(p.sumW, int(docLens[d]))
			// BM25 and TFIDF have no per-document correction; skipping the
			// +0 add is exact because accumulated scores are never -0.
		}
		keys = append(keys, rankKey{score: score, doc: d})
	}
	candidates := len(keys)
	if k > 0 && k < len(keys) {
		keys = acc.cut(keys, k)
	}
	slices.SortFunc(keys, rankKeyCompare)
	hits := getHits()
	for _, key := range keys {
		hits = append(hits, Hit{Doc: globalID(key.doc), ID: seg.ExternalID(key.doc), Score: key.score})
	}
	fixTieRuns(hits)
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	acc.keys = keys[:0]
	putAccumulator(acc)
	return SegmentResult{Hits: hits, Candidates: candidates}, nil
}

package search

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/overload"
	"repro/internal/text"
	"repro/internal/trace"
)

// WeightedTerm is an analyzed query term with a query-side weight.
// Plain user terms carry weight 1; relevance-feedback expansion terms
// carry fractional weights.
type WeightedTerm struct {
	Term   string
	Weight float64
}

// Query is a fully analysed, executable query against one field.
type Query struct {
	Field index.Field
	Terms []WeightedTerm
}

// SumWeights returns the total query weight (the LM doc-score mass).
func (q Query) SumWeights() float64 {
	var s float64
	for _, t := range q.Terms {
		s += t.Weight
	}
	return s
}

// Hit is one retrieved document.
type Hit struct {
	Doc index.DocID
	// ID is the external (shot) identifier.
	ID    string
	Score float64
}

// Results is a ranked result list.
type Results struct {
	Hits []Hit
	// Candidates is the number of documents that matched at least one
	// query term (before top-k truncation).
	Candidates int
	// Partial marks a degraded-mode ranking: one or more segments
	// failed (or ran out of deadline budget) and the list merges only
	// the segments that answered. Never set unless the engine was
	// explicitly put in degraded mode (SetAllowPartial); partiality is
	// always flagged, never silent.
	Partial bool
	// FailedSegments lists the ordinals missing from a Partial
	// ranking, lowest first (empty when Partial is false).
	FailedSegments []int
}

// IDs returns the hit IDs in rank order.
func (r Results) IDs() []string {
	out := make([]string, len(r.Hits))
	for i, h := range r.Hits {
		out[i] = h.ID
	}
	return out
}

// Options configures one search call.
type Options struct {
	// K bounds the result list; zero selects DefaultK.
	K int
	// Scorer defaults to BM25{}.
	Scorer Scorer
	// Filter, when non-nil, drops documents for which it returns false
	// before ranking (used e.g. to exclude already-seen shots). On a
	// multi-segment engine the filter is called from several worker
	// goroutines at once, so it must be safe for concurrent use (pure
	// functions over immutable data, like the core package's metadata
	// filters, are).
	Filter func(id string) bool
}

// DefaultK is the default result-list depth, sized to a result page of
// keyframes in the desktop interface.
const DefaultK = 100

// SegmentObserver receives per-segment execution telemetry: the
// segment ordinal, how many candidate documents it contributed, and
// how long scoring it took. Implementations must be safe for
// concurrent use — segments report from worker goroutines.
type SegmentObserver func(segment, candidates int, d time.Duration)

// StatsView is the collection-wide statistics surface shared by a
// monolithic *index.Index, an *index.Sharded, and a distributed
// merge tier aggregating remote segments. Scoring always uses these
// global statistics — never per-segment ones — which is what makes
// any segmented execution return bit-identical scores to a
// single-index scan.
type StatsView interface {
	NumDocs() int
	AvgDocLen(index.Field) float64
	TotalFieldLen(index.Field) int64
	DocFreq(index.Field, string) int
	CollectionFreq(index.Field, string) int64
	DocIDOf(string) (index.DocID, bool)
}

// Engine executes queries against a set of segments — a single local
// index, a sharded index fanned out over a worker pool, or remote
// segment servers behind a scatter/gather merge tier. It is safe for
// concurrent use; all state is read-only after construction.
type Engine struct {
	segs     []SegmentSearcher
	stats    StatsView
	analyzer *text.Analyzer
	workers  int
	obs      SegmentObserver
	// allowPartial switches the merge into degraded mode: segment
	// failures are tolerated as long as at least one segment answers,
	// and the merged ranking is flagged Results.Partial.
	allowPartial bool
}

// NewEngine wraps a single index with the analysis pipeline used at
// query time. analyzer may be nil, selecting the default pipeline; it
// must match the pipeline used at indexing time for text retrieval to
// work.
func NewEngine(ix *index.Index, analyzer *text.Analyzer) *Engine {
	return NewSegmentsEngine(ix, []SegmentSearcher{localSegment{seg: ix, ordinal: 0, stride: 1}}, analyzer, 1)
}

// NewShardedEngine wraps a sharded index. Queries score every segment
// on a pool of `workers` goroutines (0 selects GOMAXPROCS) and merge
// the per-segment top-k lists; ranking output is identical to a
// single-index engine over the same document stream.
func NewShardedEngine(sh *index.Sharded, analyzer *text.Analyzer, workers int) *Engine {
	segs := make([]SegmentSearcher, sh.NumSegments())
	for i := range segs {
		segs[i] = localSegment{seg: sh.Segment(i), ordinal: i, stride: sh.NumSegments()}
	}
	return NewSegmentsEngine(sh, segs, analyzer, workers)
}

// NewSegmentsEngine assembles an engine over arbitrary segments — the
// constructor the distributed merge tier uses to put remote segment
// servers behind the same scatter/gather executor and ranked-list merge
// as the in-process fan-out. stats must aggregate collection-wide
// statistics over exactly the documents the segments hold; workers
// bounds the fan-out pool (0 selects GOMAXPROCS).
func NewSegmentsEngine(stats StatsView, segs []SegmentSearcher, analyzer *text.Analyzer, workers int) *Engine {
	if analyzer == nil {
		analyzer = text.NewAnalyzer()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		segs:     segs,
		stats:    stats,
		analyzer: analyzer,
		workers:  workers,
	}
}

// NumSegments reports how many index segments the engine scores.
func (e *Engine) NumSegments() int { return len(e.segs) }

// SegmentDocs returns the document count of segment i.
func (e *Engine) SegmentDocs(i int) int { return e.segs[i].NumDocs() }

// Workers reports the fan-out worker bound.
func (e *Engine) Workers() int { return e.workers }

// NumDocs returns the collection-wide document count.
func (e *Engine) NumDocs() int { return e.stats.NumDocs() }

// DocFreq returns the collection-wide document frequency of term in
// field f.
func (e *Engine) DocFreq(f index.Field, term string) int { return e.stats.DocFreq(f, term) }

// DocIDOf maps an external identifier to its global DocID.
func (e *Engine) DocIDOf(ext string) (index.DocID, bool) { return e.stats.DocIDOf(ext) }

// SetSegmentObserver installs a telemetry hook invoked once per
// segment per search. Install at wiring time, before the engine serves
// queries; the engine does not synchronise the field itself.
func (e *Engine) SetSegmentObserver(obs SegmentObserver) { e.obs = obs }

// SetAllowPartial switches the engine into degraded mode: when one or
// more segments fail mid-scatter (backend down, deadline spent) but at
// least one answers, the merge returns the answering segments' hits
// flagged Results.Partial instead of failing the whole query. Off by
// default — full-or-error is the contract the parity suites pin — and
// like SetSegmentObserver it must be set at wiring time.
func (e *Engine) SetAllowPartial(ok bool) { e.allowPartial = ok }

// Analyzer exposes the query analysis pipeline.
func (e *Engine) Analyzer() *text.Analyzer { return e.analyzer }

// ParseText analyses free text into a text-field query with unit
// weights. Duplicate terms accumulate weight.
func (e *Engine) ParseText(queryText string) Query {
	counts := e.analyzer.TermCounts(queryText)
	terms := make([]WeightedTerm, 0, len(counts))
	for t, c := range counts {
		terms = append(terms, WeightedTerm{Term: t, Weight: float64(c)})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].Term < terms[j].Term })
	return Query{Field: index.FieldText, Terms: terms}
}

// ConceptQuery builds a concept-field query from concept names.
func ConceptQuery(concepts ...string) Query {
	terms := make([]WeightedTerm, 0, len(concepts))
	for _, c := range concepts {
		terms = append(terms, WeightedTerm{Term: c, Weight: 1})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].Term < terms[j].Term })
	return Query{Field: index.FieldConcept, Terms: terms}
}

// Search executes q and returns the top-K hits ordered by descending
// score, ties broken by ascending external ID for reproducibility. On
// a multi-segment engine the segments are scored concurrently on the
// worker pool and merged; the ranking is identical to the sequential
// single-index scan because scoring uses collection-wide statistics
// and the rank order is total (score, then ID). A failed segment
// (possible only on remote segments) surfaces as a *SegmentError;
// partial rankings are never returned, because a missing segment's
// documents would silently vanish from the result.
func (e *Engine) Search(q Query, opts Options) (Results, error) {
	return e.SearchContext(context.Background(), q, opts)
}

// SearchContext is Search with a caller context: cancellation reaches
// remote segments, and when ctx carries a trace the query records
// "prepare", per-"segment", and "merge" spans into it. With no trace
// in ctx the span calls are no-op nil-span fast paths, keeping the
// untraced hot path at the PR 5 cost.
func (e *Engine) SearchContext(ctx context.Context, q Query, opts Options) (Results, error) {
	if len(q.Terms) == 0 {
		return Results{}, nil
	}
	// A request whose latency budget is already spent does no segment
	// work at all: answer the typed error immediately.
	if overload.FromContext(ctx).Expired() {
		return Results{}, overload.ErrDeadlineExceeded
	}
	k := opts.K
	if k <= 0 {
		k = DefaultK
	}
	scorer := opts.Scorer
	if scorer == nil {
		scorer = BM25{}
	}
	for _, t := range q.Terms {
		if t.Weight < 0 {
			return Results{}, fmt.Errorf("search: negative weight %v for term %q", t.Weight, t.Term)
		}
	}

	// Collection-wide statistics, computed once, compiled into the
	// prepared query, and shared by every segment worker.
	_, prep := trace.StartSpan(ctx, "prepare")
	n := e.stats.NumDocs()
	avgdl := e.stats.AvgDocLen(q.Field)
	totalLen := e.stats.TotalFieldLen(q.Field)
	stats := make([]TermStats, len(q.Terms))
	for i, t := range q.Terms {
		stats[i] = TermStats{
			N: n, AvgDocLen: avgdl, TotalLen: totalLen,
			DF: e.stats.DocFreq(q.Field, t.Term), CF: e.stats.CollectionFreq(q.Field, t.Term),
			Weight: t.Weight,
		}
	}
	p := PrepareQuery(q, stats, scorer)
	if prep != nil {
		prep.SetAttr("terms", strconv.Itoa(len(q.Terms)))
		prep.End()
	}

	results := make([]segmentOutcome, len(e.segs))
	if workers := min(e.workers, len(e.segs)); workers <= 1 {
		for i := range e.segs {
			results[i] = e.runSegment(ctx, i, p, opts.Filter, k)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(e.segs) {
						return
					}
					results[i] = e.runSegment(ctx, i, p, opts.Filter, k)
				}
			}()
		}
		wg.Wait()
	}

	// Merge: each segment returned its k best in rank order, so the
	// global top-k is the first k of one linear merge of those lists;
	// the total (score, ID) order makes it independent of segment
	// order. Surface the lowest-ordinal failure for deterministic error
	// reporting. Per-segment hit lists are dead after the merge, so
	// they go back to the kernel's pool.
	_, mrg := trace.StartSpan(ctx, "merge")
	candidates, succeeded, total := 0, 0, 0
	for _, r := range results {
		if r.err == nil {
			succeeded++
			candidates += r.res.Candidates
			total += len(r.res.Hits)
		}
	}
	var failed []int
	for i, r := range results {
		if r.err == nil {
			continue
		}
		// Degraded mode tolerates the failure (flagged below) as long
		// as some segment answers; otherwise fail whole, so a missing
		// segment's documents never vanish silently.
		if e.allowPartial && succeeded > 0 {
			failed = append(failed, i)
			continue
		}
		mrg.End()
		recycleOutcomes(results)
		return Results{}, &SegmentError{Segment: i, Err: r.err}
	}
	hits := mergeRanked(results, min(k, total))
	recycleOutcomes(results)
	if mrg != nil {
		mrg.SetAttr("candidates", strconv.Itoa(candidates))
		if len(failed) > 0 {
			mrg.SetAttr("partial", strconv.Itoa(len(failed)))
		}
		mrg.End()
	}
	return Results{Hits: hits, Candidates: candidates, Partial: len(failed) > 0, FailedSegments: failed}, nil
}

// mergeRanked merges the answered segments' ranked hit lists into a
// fresh list of the n best: each step takes the best list head, so the
// merge costs n × segments compares and sorts nothing.
func mergeRanked(results []segmentOutcome, n int) []Hit {
	out := make([]Hit, 0, n)
	for len(out) < n {
		best := -1
		for i := range results {
			r := &results[i]
			if r.err != nil || r.next == len(r.res.Hits) {
				continue
			}
			if best < 0 || hitLess(r.res.Hits[r.next], results[best].res.Hits[results[best].next]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, results[best].res.Hits[results[best].next])
		results[best].next++
	}
	return out
}

// recycleOutcomes hands every answered segment's hits back to the pool.
func recycleOutcomes(results []segmentOutcome) {
	for _, r := range results {
		if r.err == nil {
			RecycleHits(r.res.Hits)
		}
	}
}

// SearchMultiField runs the same information need against several
// field queries and fuses the ranked lists. A nil fuser selects
// CombSUM with min-max normalisation.
func (e *Engine) SearchMultiField(queries []Query, opts Options, fuser Fuser) (Results, error) {
	if fuser == nil {
		fuser = CombSUM{}
	}
	lists := make([][]Hit, 0, len(queries))
	for _, q := range queries {
		r, err := e.Search(q, opts)
		if err != nil {
			return Results{}, err
		}
		if len(r.Hits) > 0 {
			lists = append(lists, r.Hits)
		}
	}
	k := opts.K
	if k <= 0 {
		k = DefaultK
	}
	fused := Fuse(fuser, lists, k)
	return Results{Hits: fused, Candidates: len(fused)}, nil
}

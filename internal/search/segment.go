package search

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/index"
	"repro/internal/trace"
)

// SegmentResult is one segment's contribution to a query: its local
// top-k (fully scored, in rank order, with global doc IDs) and how
// many of its documents matched at least one query term after
// filtering.
type SegmentResult struct {
	Hits       []Hit
	Candidates int
}

// SegmentSearcher is one scoreable partition of the collection. The
// engine computes collection-wide term statistics once per query,
// compiles them into a PreparedQuery, and hands the same compiled
// query to every segment, so a segment never consults its own
// (partial) statistics: that contract is what keeps any composition of
// segments — in-process or behind an RPC surface — bit-identical to a
// monolithic scan. Implementations must be safe for concurrent use.
type SegmentSearcher interface {
	// NumDocs reports the segment's document count (telemetry sizing).
	NumDocs() int
	// SearchSegment scores the segment with the compiled query (which
	// carries the precomputed global term statistics), applies filter,
	// and returns the segment's k best hits in rank order (score
	// descending, ties by ascending ID) — the engine merges the lists
	// without re-sorting them. k <= 0 means "all
	// candidates" (used when a filter must be applied by the caller
	// instead). ctx carries cancellation and the query's trace (when
	// one is active); remote segments propagate both across the RPC
	// boundary, local segments may ignore it.
	SearchSegment(ctx context.Context, p *PreparedQuery, filter func(string) bool, k int) (SegmentResult, error)
}

// SegmentError reports which segment of a fan-out failed. In-process
// segments never fail; remote segments surface transport and protocol
// faults here, so callers can tell *which* backend broke.
type SegmentError struct {
	Segment int
	Err     error
}

// Error implements error.
func (e *SegmentError) Error() string {
	return fmt.Sprintf("search: segment %d: %v", e.Segment, e.Err)
}

// Unwrap exposes the underlying fault for errors.Is/As.
func (e *SegmentError) Unwrap() error { return e.Err }

// ScoreIndexSegment is the per-segment scoring kernel entry point:
// it compiles the query (PrepareQuery) and runs the dense-accumulator
// scan (PreparedQuery.ScoreSegment) over one in-memory index segment
// using the precomputed *global* term statistics, followed by the
// segment-local top-k cut. globalID converts the segment's local doc
// IDs to engine-wide IDs. Because every document lives in exactly one
// segment and term contributions accumulate in query-term order
// exactly as in the monolithic scan, per-document scores are
// bit-identical to the sequential path — and to the map-accumulator
// reference implementation the parity tests keep as an oracle. This
// one kernel executes on both sides of the process boundary — the
// in-process fan-out and the remote segment servers — which is what
// pins distributed rankings to the local ones. Callers issuing many
// segment scans for one query should PrepareQuery once and call
// ScoreSegment per segment instead.
//
// k <= 0 keeps every candidate (callers that must filter after the
// fact request the full list).
func ScoreIndexSegment(seg *index.Index, globalID func(index.DocID) index.DocID,
	q Query, stats []TermStats, scorer Scorer, filter func(string) bool, k int) SegmentResult {
	return PrepareQuery(q, stats, scorer).ScoreSegment(seg, globalID, filter, k)
}

// localSegment adapts one in-memory index segment to SegmentSearcher.
// Global IDs follow the round-robin layout index.Sharded pins down:
// global = local*stride + ordinal (stride 1, ordinal 0 for a
// monolithic index, where global == local).
type localSegment struct {
	seg     *index.Index
	ordinal int
	stride  int
}

// NumDocs implements SegmentSearcher.
func (l localSegment) NumDocs() int { return l.seg.NumDocs() }

// SearchSegment implements SegmentSearcher. In-process scoring cannot
// fail on its own, but it honours a latency budget in ctx: the kernel
// polls it per postings block and aborts with
// overload.ErrDeadlineExceeded once it is spent.
func (l localSegment) SearchSegment(ctx context.Context, p *PreparedQuery,
	filter func(string) bool, k int) (SegmentResult, error) {
	return p.ScoreSegmentContext(ctx, l.seg, l.globalID, filter, k)
}

func (l localSegment) globalID(d index.DocID) index.DocID {
	return d*index.DocID(l.stride) + index.DocID(l.ordinal)
}

// runSegment executes one segment and reports its telemetry; the
// observed duration covers the full segment call, so for a remote
// segment it includes the RPC round trip. When the query is traced,
// each segment gets one "segment" span (a remote segment grafts the
// backend's echoed server-side tree under it).
func (e *Engine) runSegment(ctx context.Context, i int, p *PreparedQuery,
	filter func(string) bool, k int) segmentOutcome {
	ctx, sp := trace.StartSpan(ctx, "segment")
	if sp != nil {
		sp.SetAttr("ordinal", strconv.Itoa(i))
	}
	start := time.Now()
	res, err := e.segs[i].SearchSegment(ctx, p, filter, k)
	sp.End()
	if err != nil {
		return segmentOutcome{err: err}
	}
	if e.obs != nil {
		e.obs(i, res.Candidates, time.Since(start))
	}
	return segmentOutcome{res: res}
}

// segmentOutcome is one segment's execution result inside a fan-out;
// next is the merge's cursor into res.Hits.
type segmentOutcome struct {
	res  SegmentResult
	err  error
	next int
}

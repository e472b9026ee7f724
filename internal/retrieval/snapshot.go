package retrieval

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/search"
	"repro/internal/trace"
)

// SegmentSummary is one index segment's execution telemetry: how many
// documents it holds, how many times it has been scored, and its
// scoring-latency quantiles.
type SegmentSummary struct {
	Segment  int                    `json:"segment"`
	Docs     int                    `json:"docs"`
	Searches int64                  `json:"searches"`
	Latency  metrics.LatencySummary `json:"latency"`
}

// BackendSummary is one remote segment backend's telemetry: which
// segments it scores, how many RPCs it has served and failed, and its
// RPC latency quantiles (round trip as seen from the merge tier).
type BackendSummary struct {
	Addr string `json:"addr"`
	// Healthy is the routing health bit: false after a failed probe or
	// a retryable RPC fault, true again after a success. An unhealthy
	// replica is deprioritized, not excluded.
	Healthy  bool  `json:"healthy"`
	Segments []int `json:"segments"`
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// CodecFallbacks is always zero: search RPCs speak one codec. It
	// remains only because the bench harness (bench/scrape.go) reads it
	// for its codec_fallbacks validity guard; the field and the guard go
	// together.
	CodecFallbacks int64 `json:"codec_fallbacks,omitempty"`
	// Hedges counts search RPCs sent to this backend as the hedged
	// duplicate of a slow twin; Failovers counts RPCs sent here because
	// a twin failed; ProbeFailures counts health-probe rejections.
	Hedges        int64 `json:"hedges"`
	Failovers     int64 `json:"failovers"`
	ProbeFailures int64 `json:"probe_failures,omitempty"`
	// Breaker is the replica's circuit-breaker state ("closed",
	// "half_open", "open"; empty when breakers are disabled) and
	// BreakerTrips how many times it has tripped open.
	Breaker      string                 `json:"breaker,omitempty"`
	BreakerTrips int64                  `json:"breaker_trips,omitempty"`
	Latency      metrics.LatencySummary `json:"latency"`
}

// Snapshot is the retrieval-engine section of the /api/v1/metrics
// body: cache counters plus per-segment fan-out timing, and — when
// the engine is a distributed merge tier — per-backend RPC telemetry.
type Snapshot struct {
	Cache CacheSnapshot `json:"cache"`
	// Segments is present when the engine fans out over more than one
	// segment (or when timing is wired at all). On a distributed
	// engine the per-segment latency includes the RPC round trip.
	Segments []SegmentSummary `json:"segments,omitempty"`
	// Workers is the fan-out worker bound (1 = sequential).
	Workers int `json:"workers,omitempty"`
	// Backends is present only on a distributed merge tier: one entry
	// per remote segment server.
	Backends []BackendSummary `json:"backends,omitempty"`
	// RetryBudget is present only on a distributed merge tier: the
	// cluster-wide hedge/failover token bucket.
	RetryBudget *overload.RetryBudgetStats `json:"retry_budget,omitempty"`
	// Kernel reports the scoring kernel's pool telemetry (compiled
	// queries, segment scans, accumulator/top-k/hit-slice reuse). The
	// counters are process-wide: every engine in the process scores
	// through the same pooled kernel.
	Kernel search.KernelStats `json:"kernel"`
	// Stages is present when query tracing is wired: per-stage duration
	// quantiles (expand, prepare, segment, merge, ...) aggregated from
	// the span data of traced requests. Only traced requests feed these
	// histograms, so counts lag the totals above when tracing is
	// sampled.
	Stages []trace.StageSummary `json:"stages,omitempty"`
}

// SegmentTimings accumulates per-segment scoring latency. Observe is
// lock-free (the histograms are atomic), so it can sit directly on the
// engine's fan-out hot path as a search.SegmentObserver.
type SegmentTimings struct {
	docs  []int
	hists []*metrics.Histogram
}

// NewSegmentTimings sizes the collector for segments with the given
// document counts.
func NewSegmentTimings(docs []int) *SegmentTimings {
	st := &SegmentTimings{docs: docs, hists: make([]*metrics.Histogram, len(docs))}
	for i := range st.hists {
		st.hists[i] = &metrics.Histogram{}
	}
	return st
}

// Observe records one segment scoring pass (candidates is accepted to
// match search.SegmentObserver; the per-pass latency is what is kept).
func (st *SegmentTimings) Observe(segment, candidates int, d time.Duration) {
	if segment < 0 || segment >= len(st.hists) {
		return
	}
	st.hists[segment].Observe(d)
}

// Summaries snapshots every segment's telemetry.
func (st *SegmentTimings) Summaries() []SegmentSummary {
	out := make([]SegmentSummary, len(st.hists))
	for i, h := range st.hists {
		out[i] = SegmentSummary{
			Segment:  i,
			Docs:     st.docs[i],
			Searches: int64(h.Count()),
			Latency:  h.Summary(),
		}
	}
	return out
}

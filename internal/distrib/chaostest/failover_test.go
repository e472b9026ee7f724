package chaostest

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/retrieval"
	"repro/internal/search"
)

// summaryOf picks one backend's telemetry row by address.
func summaryOf(t *testing.T, c *distrib.Cluster, addr string) retrieval.BackendSummary {
	t.Helper()
	for _, s := range c.BackendSummaries() {
		if s.Addr == addr {
			return s
		}
	}
	t.Fatalf("no summary for backend %s", addr)
	return retrieval.BackendSummary{}
}

func one(t *testing.T, eng *search.Engine, q string) {
	t.Helper()
	if _, err := eng.Search(eng.ParseText(q), search.Options{K: 5, Scorer: search.BM25{}}); err != nil {
		t.Fatalf("search: %v", err)
	}
}

// TestFailoverDeterministic pins the error-driven failover path with
// no timing involved at all: the preferred replica's connection is
// severed, so the very first query fails over to the twin, marks the
// victim unhealthy, and every subsequent query routes twin-first
// without another failover.
func TestFailoverDeterministic(t *testing.T) {
	h := New(t, Config{Seed: 3, Docs: 80, Segments: 2, Groups: 1, Replicas: 2})
	c := h.Connect()
	eng := c.NewEngine(nil, 2)
	primary, twin := h.Groups[0][0], h.Groups[0][1]

	// Fresh per-ordinal rotation starts at replica 0, so with both
	// replicas healthy the first query's two segment RPCs both prefer
	// the primary.
	primary.Injector.Set(Kill)
	one(t, eng, "goal match")

	ps, ts := summaryOf(t, c, primary.Addr()), summaryOf(t, c, twin.Addr())
	if ps.Healthy {
		t.Error("primary still marked healthy after severed RPCs")
	}
	if ts.Failovers != 2 {
		t.Errorf("twin failovers = %d, want 2 (one per ordinal)", ts.Failovers)
	}
	if ps.Errors != 2 {
		t.Errorf("primary errors = %d, want 2", ps.Errors)
	}

	// Second query: the unhealthy primary is deprioritized, so the twin
	// answers directly — no new failovers, no new primary errors.
	one(t, eng, "storm vote")
	if after := summaryOf(t, c, twin.Addr()); after.Failovers != 2 {
		t.Errorf("healthy-first routing still failing over (failovers = %d)", after.Failovers)
	}
	if after := summaryOf(t, c, primary.Addr()); after.Errors != 2 {
		t.Errorf("deprioritized primary was still tried first (errors = %d)", after.Errors)
	}

	// Heal: one probe pass restores the primary into rotation.
	primary.Injector.Set(Off)
	c.ProbeNow(t.Context())
	if s := summaryOf(t, c, primary.Addr()); !s.Healthy {
		t.Error("primary unhealthy after heal + probe")
	}
}

// TestHedgeDeterministic drives the hedge path on the fake clock: the
// primary hangs (never errors, never answers), the test advances the
// clock past the hedge budget, and the twin's duplicate wins — zero
// failed queries, exactly one hedge counted, and the hanging RPC's
// cancellation not booked as a backend error.
func TestHedgeDeterministic(t *testing.T) {
	h := New(t, Config{Seed: 5, Docs: 60, Segments: 1, Groups: 1, Replicas: 2})
	c := h.Connect(distrib.WithHedge(50 * time.Millisecond))
	eng := c.NewEngine(nil, 1)
	primary, twin := h.Groups[0][0], h.Groups[0][1]

	primary.Injector.Set(Hang)
	done := make(chan error, 1)
	go func() {
		_, err := eng.Search(eng.ParseText("goal crowd"), search.Options{K: 5, Scorer: search.BM25{}})
		done <- err
	}()
	// The query is now in flight against the hanging primary with its
	// hedge timer armed; only advancing the clock can unblock it.
	h.Clock.AwaitTimers(1)
	select {
	case err := <-done:
		t.Fatalf("query finished before the hedge budget elapsed (err=%v)", err)
	default:
	}
	h.Clock.Advance(50 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("hedged query failed: %v", err)
	}

	if s := summaryOf(t, c, twin.Addr()); s.Hedges != 1 {
		t.Errorf("twin hedges = %d, want 1", s.Hedges)
	}
	if s := summaryOf(t, c, primary.Addr()); s.Errors != 0 {
		t.Errorf("hanging primary booked %d errors; a cancelled hedge loser is not a backend fault", s.Errors)
	}

	// Healed primary, next query: rotation moves to the twin (healthy,
	// position 1 of the rotated order) and answers inside the budget —
	// no new hedge fires without an Advance.
	primary.Injector.Set(Off)
	one(t, eng, "vote summit")
	if s := summaryOf(t, c, twin.Addr()); s.Hedges != 1 {
		t.Errorf("hedges grew to %d without the clock advancing", s.Hedges)
	}
}

// TestProbeDrivenRouting: a probe pass alone (no failed query needed)
// steers routing away from a dead replica — the victim serves zero
// search RPCs while unhealthy and rejoins after a healing probe.
func TestProbeDrivenRouting(t *testing.T) {
	h := New(t, Config{Seed: 13, Docs: 80, Segments: 2, Groups: 1, Replicas: 2})
	c := h.Connect()
	eng := c.NewEngine(nil, 2)
	victim, twin := h.Groups[0][0], h.Groups[0][1]

	victim.Injector.Set(Kill)
	c.ProbeNow(t.Context())
	vs := summaryOf(t, c, victim.Addr())
	if vs.Healthy || vs.ProbeFailures == 0 {
		t.Fatalf("probe did not mark the victim: healthy=%v probe_failures=%d", vs.Healthy, vs.ProbeFailures)
	}

	for i := 0; i < 4; i++ {
		one(t, eng, "goal storm")
	}
	if s := summaryOf(t, c, victim.Addr()); s.Errors != 0 {
		t.Errorf("probed-out replica was still tried (%d errors)", s.Errors)
	}
	if s := summaryOf(t, c, twin.Addr()); s.Failovers != 0 {
		t.Errorf("probe-driven routing should avoid failovers, got %d", s.Failovers)
	}

	victim.Injector.Set(Off)
	c.ProbeNow(t.Context())
	if s := summaryOf(t, c, victim.Addr()); !s.Healthy {
		t.Error("victim unhealthy after healing probe")
	}
}

// TestProbeLoopOnFakeClock: the background probe loop ticks on the
// injected clock — advancing it runs a probe pass without any real
// time passing. The cluster runs no pass before its first tick, and
// one failed probe is enough to mark a replica unhealthy.
func TestProbeLoopOnFakeClock(t *testing.T) {
	h := New(t, Config{Seed: 17, Docs: 60, Segments: 1, Groups: 1, Replicas: 2})
	var probes atomic.Int64
	scripted := h.Prober()
	c := h.Connect(distrib.WithProbeInterval(time.Second),
		distrib.WithProber(func(ctx context.Context, addr string) error {
			probes.Add(1)
			return scripted(ctx, addr)
		}))
	victim := h.Groups[0][0]
	victim.Injector.Set(Kill)

	// The loop armed its first tick at connect and probes nothing
	// until it fires.
	h.Clock.AwaitTimers(1)
	if n := probes.Load(); n != 0 {
		t.Fatalf("%d probes before the first tick, want none", n)
	}
	// Fire it; the loop arming its next tick is the barrier that says
	// the pass has finished.
	h.Clock.Advance(time.Second)
	h.Clock.AwaitTimers(2)
	if s := summaryOf(t, c, victim.Addr()); s.Healthy || s.ProbeFailures != 1 {
		t.Fatalf("after one failed pass: healthy=%v probe_failures=%d, want unhealthy and 1", s.Healthy, s.ProbeFailures)
	}

	// One healthy pass brings it back.
	victim.Injector.Set(Off)
	h.Clock.Advance(time.Second)
	h.Clock.AwaitTimers(3)
	if s := summaryOf(t, c, victim.Addr()); !s.Healthy || s.ProbeFailures != 1 {
		t.Fatalf("after a healthy pass: healthy=%v probe_failures=%d, want healthy and 1", s.Healthy, s.ProbeFailures)
	}
}

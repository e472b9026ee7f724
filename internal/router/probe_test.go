package router_test

// The router's health probe loop, driven by a fake clock: every pass
// is one Advance, and the loop arming its next tick is the barrier
// that says the pass (and every verdict in it) has finished.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/distrib/chaostest"
	"repro/internal/router"
)

// scriptedReplica answers /api/v1/healthz with a scripted status and
// drain state, and counts the probes it has seen.
type scriptedReplica struct {
	ts       *httptest.Server
	status   atomic.Int32
	draining atomic.Bool
	probes   atomic.Int64
}

func newScriptedReplica(t *testing.T) *scriptedReplica {
	t.Helper()
	rep := &scriptedReplica{}
	rep.status.Store(http.StatusOK)
	rep.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		rep.probes.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(int(rep.status.Load()))
		json.NewEncoder(w).Encode(map[string]bool{"draining": rep.draining.Load()})
	}))
	t.Cleanup(rep.ts.Close)
	return rep
}

// probedRouter is a router over scripted replicas whose probe loop
// runs on clk.
type probedRouter struct {
	rt     *router.Router
	clk    *chaostest.FakeClock
	passes int // passes finished so far
}

func newProbedRouter(t *testing.T, reps ...*scriptedReplica) *probedRouter {
	t.Helper()
	urls := make([]string, len(reps))
	for i, rep := range reps {
		urls[i] = rep.ts.URL
	}
	clk := chaostest.NewFakeClock()
	rt, err := router.New(router.Config{Replicas: urls, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	// The first pass runs at once, before any tick: it has finished
	// when the loop arms its first timer.
	clk.AwaitTimers(1)
	return &probedRouter{rt: rt, clk: clk, passes: 1}
}

// pass fires one probe tick and waits until that pass has finished.
func (pr *probedRouter) pass() {
	pr.clk.Advance(router.DefaultProbeInterval)
	pr.passes++
	pr.clk.AwaitTimers(pr.passes)
}

// status reports the router's view of the replica at url.
func (pr *probedRouter) status(t *testing.T, url string) router.ReplicaStatus {
	t.Helper()
	for _, st := range pr.rt.Status() {
		if st.Replica == url {
			return st
		}
	}
	t.Fatalf("no status row for %s", url)
	return router.ReplicaStatus{}
}

func TestRouterProbeFirstPassAndInterval(t *testing.T) {
	rep := newScriptedReplica(t)
	pr := newProbedRouter(t, rep)
	if got := rep.probes.Load(); got != 1 {
		t.Fatalf("probes after the first pass = %d, want 1 (one pass right away)", got)
	}
	pr.pass()
	if got := rep.probes.Load(); got != 2 {
		t.Fatalf("probes after one interval = %d, want 2", got)
	}
}

func TestRouterProbeThreshold(t *testing.T) {
	rep, other := newScriptedReplica(t), newScriptedReplica(t)
	pr := newProbedRouter(t, rep, other)

	// Three consecutive failed probes take a replica out; the first
	// two leave it in rotation.
	rep.status.Store(http.StatusInternalServerError)
	for i := 1; i <= 3; i++ {
		pr.pass()
		if got, want := pr.status(t, rep.ts.URL).Healthy, i < 3; got != want {
			t.Fatalf("after %d failed passes healthy = %v, want %v", i, got, want)
		}
	}
	if got := pr.rt.Healthy(); got != 1 {
		t.Fatalf("Healthy() = %d with one replica down, want 1", got)
	}
	if !pr.status(t, other.ts.URL).Healthy {
		t.Fatal("the healthy twin was taken out")
	}

	// One healthy pass brings it back and resets the count: two more
	// failures are again not enough.
	rep.status.Store(http.StatusOK)
	pr.pass()
	if !pr.status(t, rep.ts.URL).Healthy || pr.rt.Healthy() != 2 {
		t.Fatalf("a healthy pass did not bring the replica back: %+v", pr.rt.Status())
	}
	rep.status.Store(http.StatusInternalServerError)
	pr.pass()
	pr.pass()
	if !pr.status(t, rep.ts.URL).Healthy {
		t.Fatal("two failures after a healthy pass took the replica out: the count was not reset")
	}
	pr.pass()
	if pr.status(t, rep.ts.URL).Healthy {
		t.Fatal("the third consecutive failure did not take the replica out")
	}
}

func TestRouterProbeDraining(t *testing.T) {
	rep, other := newScriptedReplica(t), newScriptedReplica(t)
	pr := newProbedRouter(t, rep, other)

	rep.draining.Store(true)
	pr.pass()
	st := pr.status(t, rep.ts.URL)
	if !st.Draining || !st.Healthy {
		t.Fatalf("draining answer: status %+v, want draining and still healthy", st)
	}
	if got := pr.rt.Healthy(); got != 1 {
		t.Fatalf("Healthy() = %d with one replica draining, want 1", got)
	}

	rep.draining.Store(false)
	pr.pass()
	if st := pr.status(t, rep.ts.URL); st.Draining || pr.rt.Healthy() != 2 {
		t.Fatalf("drain over: status %+v, Healthy() = %d, want 2", st, pr.rt.Healthy())
	}
}

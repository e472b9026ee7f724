package router_test

// Integration tests: a real front tier over real webapi replicas
// sharing one session store — the deployment ivrroute + N ivrserve
// -session-store processes form, compressed into one test binary.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/distrib/chaostest"
	"repro/internal/ilog"
	"repro/internal/router"
	"repro/internal/sessionstore"
	"repro/internal/synth"
	"repro/internal/webapi"
)

// tier is a running front tier: a router in front of live replicas
// that share one archive and one session store.
type tier struct {
	rt    *router.Router
	front *httptest.Server
	reps  []*replicaProc
	arch  *synth.Archive
	store sessionstore.SessionStore
}

// replicaProc stands in for one ivrserve process.
type replicaProc struct {
	id  string
	ts  *httptest.Server
	srv *webapi.Server
}

func newTier(t *testing.T, n int) *tier {
	t.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	store := sessionstore.NewMemoryStore()
	tr := &tier{arch: arch, store: store}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		sys, err := core.NewSystemFromCollection(arch.Collection, core.Config{UseImplicit: true})
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("r%d", i+1)
		srv, err := webapi.NewServer(sys,
			webapi.WithSessionStore(store),
			webapi.WithReplicaID(id),
		)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		rep := &replicaProc{id: id, ts: ts, srv: srv}
		t.Cleanup(func() { rep.ts.Close(); rep.srv.Close() })
		tr.reps = append(tr.reps, rep)
		urls[i] = ts.URL
	}
	// The probe loop runs its first pass and then waits on a clock no
	// test advances: health changes come from the proxy's own
	// mid-request reactions, never from a real-time ticker.
	rt, err := router.New(router.Config{Replicas: urls, Clock: chaostest.NewFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	tr.rt = rt
	tr.front = httptest.NewServer(rt)
	t.Cleanup(tr.front.Close)
	return tr
}

// byURL maps a replica base URL (as the router reports it) back to
// the replica process.
func (tr *tier) byURL(u string) *replicaProc {
	for _, rep := range tr.reps {
		if rep.ts.URL == u {
			return rep
		}
	}
	return nil
}

// servedBy issues a GET through the front tier and reports which
// replica answered (X-IVR-Replica) plus the status code.
func (tr *tier) servedBy(t *testing.T, path string) (string, int) {
	t.Helper()
	resp, err := http.Get(tr.front.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&struct{}{})
	return resp.Header.Get(webapi.ReplicaHeader), resp.StatusCode
}

// clickTop sends click_keyframe events for the first k hits, the
// "clicker" stereotype one webapi hop at a time.
func clickTop(t *testing.T, c *client.Client, sid string, hits []client.Hit, k int) {
	t.Helper()
	var evs []ilog.Event
	for i := 0; i < k && i < len(hits); i++ {
		evs = append(evs, ilog.Event{Action: ilog.ActionClickKeyframe, ShotID: hits[i].ShotID, Rank: i})
	}
	if len(evs) == 0 {
		return
	}
	if _, err := c.SendEvents(context.Background(), sid, evs); err != nil {
		t.Fatalf("events: %v", err)
	}
}

func TestRouterAffinity(t *testing.T) {
	tr := newTier(t, 2)
	c, err := client.New(tr.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, client.CreateSessionRequest{UserID: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	owner := tr.byURL(tr.rt.Owner(sid))
	if owner == nil {
		t.Fatalf("Owner(%s) = %q, not a replica", sid, tr.rt.Owner(sid))
	}
	q := tr.arch.Truth.SearchTopics[0].Query
	searchPath := "/api/v1/search?session=" + sid + "&q=" + strings.ReplaceAll(q, " ", "+")
	for i := 0; i < 3; i++ {
		rep, status := tr.servedBy(t, searchPath)
		if status != http.StatusOK {
			t.Fatalf("search %d: status %d", i, status)
		}
		if rep != owner.id {
			t.Fatalf("search %d served by %s, owner is %s (affinity broken)", i, rep, owner.id)
		}
	}
	// The retired stream path is unmatched: the owner answers the
	// envelope 404 and the router relays it.
	resp, err := http.Get(tr.front.URL + "/api/v1/search/stream?session=" + sid + "&q=" + strings.ReplaceAll(q, " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || err != nil || env.Error.Code != "not_found" {
		t.Fatalf("stream path: status %d, envelope %+v (%v), want the 404 not_found envelope", resp.StatusCode, env, err)
	}
	// Session-state reads extract the ID from the path...
	if rep, status := tr.servedBy(t, "/api/v1/sessions/"+sid); status != http.StatusOK || rep != owner.id {
		t.Fatalf("session read: status %d via %s, want 200 via %s", status, rep, owner.id)
	}
	// ...and event batches from the JSON body. The batch is invalid
	// (empty), but even the 400 must come from the session's owner.
	resp, err = http.Post(tr.front.URL+"/api/v1/events", "application/json",
		strings.NewReader(`{"session_id":"`+sid+`","events":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(webapi.ReplicaHeader); got != owner.id {
		t.Fatalf("events routed to %s, owner is %s", got, owner.id)
	}
}

func TestRouterKillAdoption(t *testing.T) {
	tr := newTier(t, 2)
	c, err := client.New(tr.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, client.CreateSessionRequest{UserID: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]string, 4)
	for i := range queries {
		queries[i] = tr.arch.Truth.SearchTopics[i%len(tr.arch.Truth.SearchTopics)].Query
	}

	// Two iterations through the router, then kill the owner replica.
	for i := 0; i < 2; i++ {
		page, err := c.Search(ctx, client.SearchRequest{SessionID: sid, Query: queries[i]})
		if err != nil {
			t.Fatal(err)
		}
		clickTop(t, c, sid, page.Hits, 2)
	}
	before, err := c.Session(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	owner := tr.byURL(tr.rt.Owner(sid))
	if owner == nil {
		t.Fatal("no owner")
	}
	owner.ts.CloseClientConnections()
	owner.ts.Close()

	// The study continues through the router with zero failed queries:
	// the surviving replica adopts the session from the shared store.
	var lastPage *client.SearchPage
	for i := 2; i < 4; i++ {
		lastPage, err = c.Search(ctx, client.SearchRequest{SessionID: sid, Query: queries[i]})
		if err != nil {
			t.Fatalf("search %d after killing owner: %v", i, err)
		}
		clickTop(t, c, sid, lastPage.Hits, 2)
	}
	after, err := c.Session(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	if after.Step != before.Step+2 || after.Evidence < before.Evidence {
		t.Fatalf("adopted session lost state: before %+v, after %+v", before, after)
	}

	// The adopted run's rankings are bit-identical to the same study
	// against one uninterrupted replica.
	refArch := tr.arch
	refSys, err := core.NewSystemFromCollection(refArch.Collection, core.Config{UseImplicit: true})
	if err != nil {
		t.Fatal(err)
	}
	refSrv, err := webapi.NewServer(refSys)
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	rc, err := client.New(refTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	refSID, err := rc.CreateSession(ctx, client.CreateSessionRequest{UserID: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	var refPage *client.SearchPage
	for i := 0; i < 4; i++ {
		refPage, err = rc.Search(ctx, client.SearchRequest{SessionID: refSID, Query: queries[i]})
		if err != nil {
			t.Fatal(err)
		}
		clickTop(t, rc, refSID, refPage.Hits, 2)
	}
	if len(refPage.Hits) == 0 || len(lastPage.Hits) != len(refPage.Hits) {
		t.Fatalf("hit counts differ: %d vs %d", len(lastPage.Hits), len(refPage.Hits))
	}
	for i := range refPage.Hits {
		if lastPage.Hits[i].ShotID != refPage.Hits[i].ShotID {
			t.Fatalf("rank %d: adopted run %s, uninterrupted %s",
				i, lastPage.Hits[i].ShotID, refPage.Hits[i].ShotID)
		}
	}

	// Telemetry saw all of it: the dead replica is out of rotation and
	// someone re-routed.
	var dead, rerouted bool
	for _, st := range tr.rt.Status() {
		if tr.byURL(st.Replica) == owner {
			dead = !st.Healthy
		}
		rerouted = rerouted || st.Rerouted > 0
	}
	if !dead || !rerouted {
		t.Fatalf("router status missed the failover: %+v", tr.rt.Status())
	}
}

func TestRouterDrainReroute(t *testing.T) {
	tr := newTier(t, 2)
	c, err := client.New(tr.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, client.CreateSessionRequest{UserID: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.arch.Truth.SearchTopics[0].Query
	if _, err := c.Search(ctx, client.SearchRequest{SessionID: sid, Query: q}); err != nil {
		t.Fatal(err)
	}
	owner := tr.byURL(tr.rt.Owner(sid))
	if owner == nil {
		t.Fatal("no owner")
	}
	if _, err := owner.srv.BeginDrain(); err != nil {
		t.Fatal(err)
	}
	// The next search must not fail and must not land on the draining
	// replica — the router reacts to the 503 mid-request, before any
	// probe has run.
	rep, status := tr.servedBy(t, "/api/v1/search?session="+sid+"&q="+strings.ReplaceAll(q, " ", "+"))
	if status != http.StatusOK {
		t.Fatalf("search against draining tier: status %d", status)
	}
	if rep == owner.id {
		t.Fatalf("request served by draining replica %s", rep)
	}
}

// TestRouterRelaysLongNonDraining503: a 503 with Retry-After whose
// code is not "draining" is relayed, not re-routed, and the router's
// peek at its envelope must not cut a body longer than the peek.
func TestRouterRelaysLongNonDraining503(t *testing.T) {
	envelope, err := json.Marshal(map[string]any{"error": map[string]string{
		"code": "overloaded", "message": strings.Repeat("queue full; ", 520),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(envelope) < 6<<10 {
		t.Fatalf("envelope is %d bytes, want at least 6 KB", len(envelope))
	}
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Length", strconv.Itoa(len(envelope)))
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(envelope)
	}))
	defer upstream.Close()
	rt, err := router.New(router.Config{Replicas: []string{upstream.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	resp, err := http.Get(front.URL + "/api/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read relayed body: %v (after %d of %d bytes)", err, len(body), len(envelope))
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if !bytes.Equal(body, envelope) {
		t.Fatalf("relayed body is %d bytes, want the upstream's %d", len(body), len(envelope))
	}
	if resp.ContentLength != int64(len(envelope)) {
		t.Fatalf("Content-Length %d, want %d", resp.ContentLength, len(envelope))
	}
}

func TestRouterOwnEndpoints(t *testing.T) {
	tr := newTier(t, 2)
	var hz struct {
		Status   string `json:"status"`
		Router   bool   `json:"router"`
		Replicas int    `json:"replicas"`
		Healthy  int    `json:"healthy"`
	}
	resp, err := http.Get(tr.front.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.Router || hz.Status != "ok" || hz.Replicas != 2 || hz.Healthy != 2 {
		t.Fatalf("healthz = %+v", hz)
	}

	var mx struct {
		Router   bool                   `json:"router"`
		Replicas []router.ReplicaStatus `json:"replicas"`
	}
	r2, err := http.Get(tr.front.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&mx); err != nil {
		t.Fatal(err)
	}
	if !mx.Router || len(mx.Replicas) != 2 {
		t.Fatalf("metrics = %+v", mx)
	}
}

func TestRouterSpreadsCreates(t *testing.T) {
	tr := newTier(t, 2)
	c, err := client.New(tr.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.CreateSession(context.Background(), client.CreateSessionRequest{UserID: "u"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range tr.rt.Status() {
		if st.Requests == 0 {
			t.Fatalf("replica %s saw no creates (round-robin broken): %+v", st.Replica, tr.rt.Status())
		}
	}
}

// benchTier builds a single replica, with and without the router in
// front, so BenchmarkSearchDirect vs BenchmarkSearchViaRouter isolates
// the front-tier hop (BENCH_search.json tracks the delta).
func benchSetup(b *testing.B, viaRouter bool) (*client.Client, string, string) {
	b.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 31)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystemFromCollection(arch.Collection, core.Config{UseImplicit: true})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := webapi.NewServer(sys)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	base := ts.URL
	if viaRouter {
		rt, err := router.New(router.Config{Replicas: []string{ts.URL}, ProbeInterval: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { rt.Close() })
		front := httptest.NewServer(rt)
		b.Cleanup(front.Close)
		base = front.URL
	}
	c, err := client.New(base)
	if err != nil {
		b.Fatal(err)
	}
	sid, err := c.CreateSession(context.Background(), client.CreateSessionRequest{UserID: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	return c, sid, arch.Truth.SearchTopics[0].Query
}

func benchSearch(b *testing.B, viaRouter bool) {
	c, sid, q := benchSetup(b, viaRouter)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(ctx, client.SearchRequest{SessionID: sid, Query: q}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchDirect(b *testing.B)    { benchSearch(b, false) }
func BenchmarkSearchViaRouter(b *testing.B) { benchSearch(b, true) }

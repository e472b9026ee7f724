package chaostest

// The backend-death suite: what an API client (and the front-tier
// router proxying it) observes when a segment backend dies during a
// search. The serving contract is complete-page-or-typed-error:
// because the merge tier finishes the whole scatter/gather before the
// first response byte is written, a backend death can only ever
// surface as an error envelope — never as a torn page that parses
// halfway.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/router"
	"repro/internal/synth"
	"repro/internal/webapi"
)

// searchTier is a full serving stack over injector-wrapped segment
// backends: chaos-capable segment tier → merge tier → webapi → router.
type searchTier struct {
	backends [][]*Backend // group → replicas
	cluster  *distrib.Cluster
	serve    *httptest.Server
	front    *httptest.Server // router in front of serve
	sid      string
	query    string
}

func newSearchTier(t *testing.T, replicas int) *searchTier {
	t.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.BuildShardedIndex(arch.Collection, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := &searchTier{}
	desc := &distrib.TopologyDesc{Version: distrib.TopologyVersion}
	for ord := 0; ord < 2; ord++ {
		var reps []*Backend
		var g distrib.TopologyGroup
		for r := 0; r < replicas; r++ {
			srv, err := distrib.NewSegmentServer(distrib.ServerConfig{Sharded: sh, Hosted: []int{ord}})
			if err != nil {
				t.Fatal(err)
			}
			in := NewInjector(srv.Handler())
			ts := httptest.NewServer(in)
			t.Cleanup(ts.Close)
			reps = append(reps, &Backend{Injector: in, Hosted: []int{ord}, ts: ts})
			g.Replicas = append(g.Replicas, ts.URL)
		}
		st.backends = append(st.backends, reps)
		desc.Groups = append(desc.Groups, g)
	}
	st.cluster, err = distrib.ConnectTopology(context.Background(), desc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.cluster.Close)
	// No result cache: every search must really scatter to the
	// (possibly faulted) backends instead of replaying a cached page.
	sys, err := core.NewSystem(st.cluster.NewEngine(nil, 2), arch.Collection, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webapi.NewServer(sys, webapi.WithTopologyAdmin(st.cluster))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	st.serve = httptest.NewServer(srv.Handler())
	t.Cleanup(st.serve.Close)
	// The router's probe loop runs its first pass and then waits on a
	// clock no test advances.
	rt, err := router.New(router.Config{Replicas: []string{st.serve.URL}, Clock: NewFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	st.front = httptest.NewServer(rt)
	t.Cleanup(st.front.Close)

	sdk, err := client.New(st.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	st.sid, err = sdk.CreateSession(context.Background(), client.CreateSessionRequest{UserID: "chaos"})
	if err != nil {
		t.Fatal(err)
	}
	st.query = arch.Truth.SearchTopics[0].Query
	return st
}

// fetchPage GETs one search page and classifies the raw body.
// Returns (complete, envelope): complete means a 200 whose body is
// exactly one JSON page, as long as its Content-Length says, with total
// ≥ len(hits); envelope means a non-200 whose body is one well-formed
// error envelope. Anything else — a short or over-long body, a page
// that does not parse, trailing bytes — fails the test: that is a torn
// body. Five hits keep the page under net/http's pre-chunking buffer,
// so serve sends it sized and the router relays that size.
func (st *searchTier) fetchPage(t *testing.T, base string) (complete, envelope bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/search?session=%s&q=%s&limit=5",
		base, st.sid, strings.ReplaceAll(st.query, " ", "+")))
	if err != nil {
		t.Fatalf("search request: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("search body died mid-read (torn body): %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
			t.Fatalf("status %d with non-envelope body %q", resp.StatusCode, body)
		}
		return false, true
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("200 page of %d bytes declared Content-Length %d (torn body)", len(body), resp.ContentLength)
	}
	var page struct {
		Total int               `json:"total"`
		Hits  []json.RawMessage `json:"hits"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&page); err != nil {
		t.Fatalf("torn page %q: %v", body, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("bytes after the page: %q", body[dec.InputOffset():])
	}
	if len(page.Hits) == 0 || page.Total < len(page.Hits) {
		t.Fatalf("page of %d hits claims total %d", len(page.Hits), page.Total)
	}
	return true, false
}

// TestSearchBackendDeathUnreplicated: with single-replica groups there
// is nowhere to fail over, so a backend tearing its response mid-body
// must surface as a typed error envelope through both the serve tier
// and the router — and service must recover the moment the backend
// heals.
func TestSearchBackendDeathUnreplicated(t *testing.T) {
	st := newSearchTier(t, 1)
	if ok, _ := st.fetchPage(t, st.front.URL); !ok {
		t.Fatal("clean search did not complete")
	}
	for _, mode := range []Mode{Torn, Kill, Garbage} {
		st.backends[0][0].Injector.Set(mode)
		for _, base := range []string{st.serve.URL, st.front.URL} {
			if _, env := st.fetchPage(t, base); !env {
				t.Fatalf("mode %s via %s: faulted search did not produce an error envelope", mode, base)
			}
		}
		st.backends[0][0].Injector.Set(Off)
		if ok, _ := st.fetchPage(t, st.front.URL); !ok {
			t.Fatalf("mode %s: search did not recover after heal", mode)
		}
	}
}

// TestSearchBackendDeathReplicated: with a twin per group the same
// faults are absorbed by failover — every search completes through the
// router, zero failed requests, while the victim is dead and after a
// live topology reload re-admits it.
func TestSearchBackendDeathReplicated(t *testing.T) {
	st := newSearchTier(t, 2)
	victim := st.backends[0][0]
	for _, mode := range []Mode{Torn, Kill, Garbage, Flap} {
		victim.Injector.Set(mode)
		for i := 0; i < 3; i++ {
			if ok, _ := st.fetchPage(t, st.front.URL); !ok {
				t.Fatalf("mode %s: search %d failed despite a healthy twin", mode, i)
			}
		}
		victim.Injector.Set(Off)
	}

	// Live reload through the admin endpoint. While the victim is dead,
	// a descriptor naming it must be rejected wholesale (every replica
	// is revalidated before the swap) and serving must continue; once
	// the victim "restarts" (heals), the same POST re-admits it.
	victim.Injector.Set(Kill)
	desc, err := json.Marshal(st.clusterDesc())
	if err != nil {
		t.Fatal(err)
	}
	post := func() int {
		t.Helper()
		resp, err := http.Post(st.serve.URL+"/api/v1/admin/topology", "application/json", strings.NewReader(string(desc)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := post(); status != http.StatusBadRequest {
		t.Fatalf("admin POST naming a dead replica: status %d, want 400", status)
	}
	if ok, _ := st.fetchPage(t, st.front.URL); !ok {
		t.Fatal("search failed after a rejected reload")
	}
	victim.Injector.Set(Off)
	if status := post(); status != http.StatusOK {
		t.Fatalf("admin POST after replica restart: status %d, want 200", status)
	}
	if ok, _ := st.fetchPage(t, st.front.URL); !ok {
		t.Fatal("search failed after live reload re-admitted the replica")
	}
}

// clusterDesc rebuilds the descriptor for the current backend layout.
func (st *searchTier) clusterDesc() *distrib.TopologyDesc {
	desc := &distrib.TopologyDesc{Version: distrib.TopologyVersion}
	for _, reps := range st.backends {
		var g distrib.TopologyGroup
		for _, b := range reps {
			g.Replicas = append(g.Replicas, b.Addr())
		}
		desc.Groups = append(desc.Groups, g)
	}
	return desc
}

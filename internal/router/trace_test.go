package router_test

// End-to-end trace propagation across the full three-tier deployment:
// ivrroute → ivrserve → 2× ivrsegment, compressed into one test
// binary. One traced search must come back with a single correlation
// ID and one span tree whose grafts cover every tier.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/distrib/chaostest"
	"repro/internal/router"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/webapi"
)

// threeTier is the full distributed deployment under one roof.
type threeTier struct {
	front   *httptest.Server
	rt      *router.Router
	serve   *webapi.Server
	segTS   []*httptest.Server
	queries []string
	// routerDone, serveDone and segDone receive one value per search
	// each tier has finished serving (see finished).
	routerDone, serveDone, segDone chan struct{}
}

// finished wraps a tier's handler so that done receives a value once
// the handler has returned from a request for path, and so once the
// tier's trace middleware has recorded that request in its ring. A
// client can read a relayed body to its end before that happens, so
// a test waits on done before it looks at a ring.
func finished(h http.Handler, path string, done chan<- struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == path {
			select {
			case done <- struct{}{}:
			default: // nobody is counting this many searches
			}
		}
	})
}

func newThreeTier(t *testing.T) *threeTier {
	t.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.BuildShardedIndex(arch.Collection, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	tt := &threeTier{
		routerDone: make(chan struct{}, 8),
		serveDone:  make(chan struct{}, 8),
		segDone:    make(chan struct{}, 8),
	}
	for _, topic := range arch.Truth.SearchTopics {
		tt.queries = append(tt.queries, topic.Query)
	}
	// Two segment servers, one hosted ordinal each — the smallest
	// topology where "one child span per backend" is distinguishable
	// from "one span total".
	var segURLs []string
	for i := 0; i < 2; i++ {
		seg, err := distrib.NewSegmentServer(distrib.ServerConfig{
			Sharded:    sh,
			Hosted:     []int{i},
			SourceHash: distrib.CollectionSourceHash(arch.Collection),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(finished(seg.Handler(), distrib.SearchPath, tt.segDone))
		t.Cleanup(ts.Close)
		tt.segTS = append(tt.segTS, ts)
		segURLs = append(segURLs, ts.URL)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cluster, err := distrib.Connect(ctx, segURLs)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cluster.NewEngine(nil, cluster.NumSegments()), arch.Collection,
		core.Config{UseImplicit: true, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetBackendTelemetry(cluster.BackendSummaries)
	srv, err := webapi.NewServer(sys, webapi.WithReplicaID("r1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	tt.serve = srv
	serveTS := httptest.NewServer(finished(srv.Handler(), "/api/v1/search", tt.serveDone))
	t.Cleanup(serveTS.Close)
	rt, err := router.New(router.Config{Replicas: []string{serveTS.URL}, Clock: chaostest.NewFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	tt.rt = rt
	tt.front = httptest.NewServer(finished(rt, "/api/v1/search", tt.routerDone))
	t.Cleanup(tt.front.Close)
	return tt
}

// spanNames collects the names of s and everything under it.
func spanNames(s *trace.Span, into map[string]int) {
	into[s.Name]++
	for _, ch := range s.Children {
		spanNames(ch, into)
	}
}

// findAll returns every span named name anywhere under s.
func findAll(s *trace.Span, name string) []*trace.Span {
	var out []*trace.Span
	if s.Name == name {
		out = append(out, s)
	}
	for _, ch := range s.Children {
		out = append(out, findAll(ch, name)...)
	}
	return out
}

func TestEndToEndTracePropagation(t *testing.T) {
	tt := newThreeTier(t)
	c, err := client.New(tt.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, client.CreateSessionRequest{UserID: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	page, err := c.Search(ctx, client.SearchRequest{
		SessionID: sid, Query: tt.queries[0], Limit: 5, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if page.RequestID == "" {
		t.Fatal("traced search returned no X-Request-Id")
	}
	root := page.Trace
	if root == nil {
		t.Fatal("traced search returned no X-IVR-Trace span tree")
	}

	// The tree starts at the router and grafts the serve tier's echo
	// under the per-attempt proxy span.
	if root.Tier != trace.TierRouter {
		t.Fatalf("root tier = %q, want %q\n%s", root.Tier, trace.TierRouter, trace.FormatTree(root))
	}
	proxies := findAll(root, "proxy")
	if len(proxies) != 1 {
		t.Fatalf("proxy spans = %d, want 1\n%s", len(proxies), trace.FormatTree(root))
	}
	if proxies[0].Attrs["replica"] == "" {
		t.Errorf("proxy span has no replica attr: %v", proxies[0].Attrs)
	}
	var serveRoot *trace.Span
	for _, ch := range proxies[0].Children {
		if ch.Tier == trace.TierServe {
			serveRoot = ch
		}
	}
	if serveRoot == nil {
		t.Fatalf("no serve-tier subtree grafted under proxy\n%s", trace.FormatTree(root))
	}

	// The serve subtree covers every stage of a cold query.
	names := map[string]int{}
	spanNames(serveRoot, names)
	for _, want := range []string{"session", "expand", "prepare", "merge", "encode", "segment"} {
		if names[want] == 0 {
			t.Errorf("serve subtree lacks %q span\n%s", want, trace.FormatTree(root))
		}
	}

	// One scatter span per segment backend, each with the backend's
	// own grafted segment-tier tree carrying server-side timing.
	segSpans := findAll(serveRoot, "segment")
	if len(segSpans) != 2 {
		t.Fatalf("segment scatter spans = %d, want 2\n%s", len(segSpans), trace.FormatTree(root))
	}
	backends := map[string]bool{}
	for _, sp := range segSpans {
		backends[sp.Attrs["backend"]] = true
		var grafted *trace.Span
		for _, ch := range sp.Children {
			if ch.Tier == trace.TierSegment {
				grafted = ch
			}
		}
		if grafted == nil {
			t.Fatalf("segment span has no grafted segment-tier child\n%s", trace.FormatTree(sp))
		}
		if grafted.DurUS <= 0 {
			t.Errorf("grafted segment tree has no server-side duration: %+v", grafted)
		}
	}
	if len(backends) != 2 || backends[""] {
		t.Errorf("segment spans name %d distinct backends, want 2: %v", len(backends), backends)
	}

	// One correlation ID across all three tiers: the router's and
	// serve replica's rings hold the same ID the client saw, and each
	// segment server's debug endpoint reports it too. Every tier must
	// have finished the request before its ring is read.
	<-tt.routerDone
	<-tt.serveDone
	for range tt.segTS {
		<-tt.segDone
	}
	if entries := tt.rt.Tracer().Traces(); len(entries) == 0 || entries[0].ID != page.RequestID {
		t.Errorf("router ring does not lead with request ID %s", page.RequestID)
	}
	found := false
	for _, e := range tt.serve.Tracer().Traces() {
		if e.ID == page.RequestID {
			found = true
			if e.Tier != trace.TierServe {
				t.Errorf("serve ring entry tier = %q", e.Tier)
			}
		}
	}
	if !found {
		t.Errorf("serve ring has no entry for request ID %s", page.RequestID)
	}
	for i, ts := range tt.segTS {
		resp, err := http.Get(ts.URL + distrib.TracesPath)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Traces []*trace.Entry `json:"traces"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		found := false
		for _, e := range body.Traces {
			if e.ID == page.RequestID && e.Tier == trace.TierSegment {
				found = true
			}
		}
		if !found {
			t.Errorf("segment server %d ring has no entry for request ID %s", i, page.RequestID)
		}
	}
}

// TestUntracedSearchCarriesNoTraceHeader pins the negative: without
// the echo request the router responds with the correlation ID only.
func TestUntracedSearchCarriesNoTraceHeader(t *testing.T) {
	tt := newThreeTier(t)
	c, err := client.New(tt.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sid, err := c.CreateSession(ctx, client.CreateSessionRequest{UserID: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("GET",
		tt.front.URL+"/api/v1/search?session="+sid+"&q="+url.QueryEscape(tt.queries[0]), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get(trace.RequestIDHeader) == "" {
		t.Error("response missing X-Request-Id")
	}
	if v := resp.Header.Get(trace.Header); v != "" {
		t.Errorf("untraced response leaked X-IVR-Trace header %q", v)
	}
}

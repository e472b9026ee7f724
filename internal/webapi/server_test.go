package webapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

func newTestServer(t *testing.T, opts ...Option) (*httptest.Server, *synth.Archive, *Server) {
	t.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemFromCollection(arch.Collection, core.Config{UseImplicit: true, UseProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, arch, srv
}

// noRedirectClient surfaces 3xx responses instead of following them.
var noRedirectClient = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := noRedirectClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d, want %d (%v)", method, url, resp.StatusCode, wantStatus, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp
}

// wantEnvelope asserts the uniform error body and returns its code.
func wantEnvelope(t *testing.T, method, url string, body any, wantStatus int, wantCode string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	doJSON(t, method, url, body, wantStatus, &env)
	if env.Error.Code != wantCode || env.Error.Message == "" {
		t.Fatalf("%s %s: envelope = %+v, want code %q with message", method, url, env, wantCode)
	}
}

func createSession(t *testing.T, ts *httptest.Server, body any) string {
	t.Helper()
	var resp struct {
		SessionID string `json:"session_id"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", body, http.StatusCreated, &resp)
	if resp.SessionID == "" {
		t.Fatal("empty session id")
	}
	return resp.SessionID
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var out struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	resp := doJSON(t, "GET", ts.URL+"/api/v1/healthz", nil, http.StatusOK, &out)
	if out.Status != "ok" {
		t.Errorf("healthz = %+v", out)
	}
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Error("response missing request id header")
	}
}

func TestRequestIDEcho(t *testing.T) {
	ts, _, _ := newTestServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/healthz", nil)
	req.Header.Set(RequestIDHeader, "trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "trace-42" {
		t.Errorf("request id = %q, want echo of trace-42", got)
	}
}

func TestSessionLifecycle(t *testing.T) {
	ts, _, _ := newTestServer(t)
	id := createSession(t, ts, map[string]any{
		"user_id":   "alice",
		"interests": map[string]float64{"sports": 0.9},
	})
	var state struct {
		SessionID string             `json:"session_id"`
		Step      int                `json:"step"`
		Interests map[string]float64 `json:"interests"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/sessions/"+id, nil, http.StatusOK, &state)
	if state.SessionID != id || state.Step != 0 {
		t.Errorf("state = %+v", state)
	}
	if state.Interests["sports"] != 0.9 {
		t.Errorf("interests = %v", state.Interests)
	}
	doJSON(t, "DELETE", ts.URL+"/api/v1/sessions/"+id, nil, http.StatusNoContent, nil)
	wantEnvelope(t, "GET", ts.URL+"/api/v1/sessions/"+id, nil, http.StatusNotFound, "not_found")
	wantEnvelope(t, "DELETE", ts.URL+"/api/v1/sessions/"+id, nil, http.StatusNotFound, "not_found")
}

func TestCreateSessionValidation(t *testing.T) {
	ts, _, _ := newTestServer(t)
	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/sessions", strings.NewReader("{broken"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON: %d", resp.StatusCode)
	}
	wantEnvelope(t, "POST", ts.URL+"/api/v1/sessions",
		map[string]any{"user_id": "x", "interests": map[string]float64{"astrology": 0.5}},
		http.StatusBadRequest, "invalid_request")
	wantEnvelope(t, "POST", ts.URL+"/api/v1/sessions",
		map[string]any{"user_id": "x", "interests": map[string]float64{"sports": 1.5}},
		http.StatusBadRequest, "invalid_request")
	// Empty body means an anonymous session.
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", nil, http.StatusCreated, nil)
}

func TestSearchAndAdapt(t *testing.T) {
	ts, arch, _ := newTestServer(t)
	id := createSession(t, ts, map[string]any{})
	topic := arch.Truth.SearchTopics[0]

	var res struct {
		Step  int `json:"step"`
		Total int `json:"total"`
		Hits  []struct {
			Rank     int     `json:"rank"`
			ShotID   string  `json:"shot_id"`
			Score    float64 `json:"score"`
			Category string  `json:"category"`
		} `json:"hits"`
	}
	url := fmt.Sprintf("%s/api/v1/search?session=%s&q=%s&limit=5", ts.URL, id, strings.ReplaceAll(topic.Query, " ", "+"))
	resp := doJSON(t, "GET", url, nil, http.StatusOK, &res)
	if len(res.Hits) == 0 || res.Step != 1 || res.Total < len(res.Hits) {
		t.Fatalf("search response: %+v", res)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	if res.Hits[0].Category == "" {
		t.Error("hits missing story metadata")
	}
	if res.Hits[0].Rank != 0 {
		t.Errorf("first hit rank = %d", res.Hits[0].Rank)
	}
	// Feed clicks on the first hit.
	events := []map[string]any{
		{"action": "click_keyframe", "shot": res.Hits[0].ShotID, "rank": 0, "topic": -1, "t": "2008-01-01T00:00:00Z"},
		{"action": "play", "shot": res.Hits[0].ShotID, "rank": 0, "seconds": 12.0, "topic": -1, "t": "2008-01-01T00:00:01Z"},
	}
	var evResp struct {
		Observed int `json:"observed"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/events",
		map[string]any{"session_id": id, "events": events}, http.StatusOK, &evResp)
	if evResp.Observed != 2 {
		t.Errorf("observed = %d", evResp.Observed)
	}
	// Second search: step advances, session state reflects evidence.
	doJSON(t, "GET", url, nil, http.StatusOK, &res)
	if res.Step != 2 {
		t.Errorf("step = %d, want 2", res.Step)
	}
	var state struct {
		Evidence int `json:"evidence"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/sessions/"+id, nil, http.StatusOK, &state)
	if state.Evidence != 2 {
		t.Errorf("evidence = %d", state.Evidence)
	}
}

func TestSearchPagination(t *testing.T) {
	ts, arch, _ := newTestServer(t)
	id := createSession(t, ts, map[string]any{})
	topic := arch.Truth.SearchTopics[0]
	q := strings.ReplaceAll(topic.Query, " ", "+")

	var full struct {
		Total  int `json:"total"`
		Offset int `json:"offset"`
		Limit  int `json:"limit"`
		Hits   []struct {
			Rank   int    `json:"rank"`
			ShotID string `json:"shot_id"`
		} `json:"hits"`
	}
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/search?session=%s&q=%s&limit=%d", ts.URL, id, q, maxLimit),
		nil, http.StatusOK, &full)
	if full.Total < 4 {
		t.Skipf("topic too small to paginate (total=%d)", full.Total)
	}
	if full.Total != len(full.Hits) {
		t.Fatalf("total %d != hits %d at full depth", full.Total, len(full.Hits))
	}
	var page struct {
		Total  int `json:"total"`
		Offset int `json:"offset"`
		Limit  int `json:"limit"`
		Hits   []struct {
			Rank   int    `json:"rank"`
			ShotID string `json:"shot_id"`
		} `json:"hits"`
	}
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/search?session=%s&q=%s&offset=2&limit=2", ts.URL, id, q),
		nil, http.StatusOK, &page)
	if page.Total != full.Total {
		t.Errorf("page total = %d, want %d", page.Total, full.Total)
	}
	if len(page.Hits) != 2 || page.Offset != 2 || page.Limit != 2 {
		t.Fatalf("page = %+v", page)
	}
	for i, h := range page.Hits {
		if h.Rank != i+2 {
			t.Errorf("hit %d rank = %d, want %d", i, h.Rank, i+2)
		}
		if h.ShotID != full.Hits[i+2].ShotID {
			t.Errorf("page hit %d = %s, full hit = %s", i, h.ShotID, full.Hits[i+2].ShotID)
		}
	}
	// Offset past the end: empty page, total intact.
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/search?session=%s&q=%s&offset=100000", ts.URL, id, q),
		nil, http.StatusOK, &page)
	if len(page.Hits) != 0 || page.Total != full.Total {
		t.Errorf("past-end page = %+v", page)
	}
}

func TestSearchValidation(t *testing.T) {
	ts, _, _ := newTestServer(t)
	wantEnvelope(t, "GET", ts.URL+"/api/v1/search?q=x", nil, http.StatusBadRequest, "invalid_request")
	wantEnvelope(t, "GET", ts.URL+"/api/v1/search?session=ghost&q=x", nil, http.StatusNotFound, "not_found")
	id := createSession(t, ts, map[string]any{})
	wantEnvelope(t, "GET", ts.URL+"/api/v1/search?session="+id+"&q=x&limit=0", nil, http.StatusBadRequest, "invalid_request")
	wantEnvelope(t, "GET", ts.URL+"/api/v1/search?session="+id+"&q=x&limit=abc", nil, http.StatusBadRequest, "invalid_request")
	wantEnvelope(t, "GET", ts.URL+"/api/v1/search?session="+id+"&q=x&offset=-1", nil, http.StatusBadRequest, "invalid_request")
	wantEnvelope(t, "GET", ts.URL+"/api/v1/search?session="+id+"&q=x&limit=1001", nil, http.StatusBadRequest, "invalid_request")
}

func TestEventsValidation(t *testing.T) {
	ts, _, _ := newTestServer(t)
	id := createSession(t, ts, map[string]any{})
	wantEnvelope(t, "POST", ts.URL+"/api/v1/events", map[string]any{"session_id": id},
		http.StatusBadRequest, "invalid_request")
	wantEnvelope(t, "POST", ts.URL+"/api/v1/events",
		map[string]any{"session_id": "ghost", "events": []map[string]any{{"action": "browse"}}},
		http.StatusNotFound, "not_found")
	// Invalid event inside the batch.
	wantEnvelope(t, "POST", ts.URL+"/api/v1/events",
		map[string]any{"session_id": id, "events": []map[string]any{
			{"action": "rate", "shot": "x", "value": 7},
		}}, http.StatusBadRequest, "invalid_request")
}

func TestSearchCategoryFacet(t *testing.T) {
	ts, arch, _ := newTestServer(t)
	id := createSession(t, ts, map[string]any{})
	topic := arch.Truth.SearchTopics[0]
	var res struct {
		Hits []struct {
			Category string `json:"category"`
		} `json:"hits"`
	}
	url := fmt.Sprintf("%s/api/v1/search?session=%s&q=%s&cat=%s", ts.URL, id,
		strings.ReplaceAll(topic.Query, " ", "+"), topic.Category.String())
	doJSON(t, "GET", url, nil, http.StatusOK, &res)
	for _, h := range res.Hits {
		if h.Category != topic.Category.String() {
			t.Fatalf("facet leaked category %q", h.Category)
		}
	}
	wantEnvelope(t, "GET",
		fmt.Sprintf("%s/api/v1/search?session=%s&q=x&cat=astrology", ts.URL, id),
		nil, http.StatusBadRequest, "invalid_request")
}

func TestShotMetadata(t *testing.T) {
	ts, arch, _ := newTestServer(t)
	shotID := string(arch.Collection.ShotIDs()[0])
	var shot struct {
		ShotID     string  `json:"shot_id"`
		Title      string  `json:"title"`
		Seconds    float64 `json:"seconds"`
		Transcript string  `json:"transcript"`
		Keyframes  int     `json:"keyframes"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/shots/"+shotID, nil, http.StatusOK, &shot)
	if shot.ShotID != shotID || shot.Seconds <= 0 || shot.Transcript == "" || shot.Keyframes == 0 {
		t.Errorf("shot = %+v", shot)
	}
	wantEnvelope(t, "GET", ts.URL+"/api/v1/shots/nope", nil, http.StatusNotFound, "not_found")
}

func TestUnknownRouteEnvelope(t *testing.T) {
	ts, arch, _ := newTestServer(t)
	wantEnvelope(t, "GET", ts.URL+"/api/v1/nope", nil, http.StatusNotFound, "not_found")
	wantEnvelope(t, "GET", ts.URL+"/elsewhere", nil, http.StatusNotFound, "not_found")
	// Unversioned /api/... paths are no longer redirected to /api/v1.
	wantEnvelope(t, "POST", ts.URL+"/api/sessions", map[string]any{}, http.StatusNotFound, "not_found")
	// The search page is the one search route: the retired stream
	// path is unmatched even for a live session.
	id := createSession(t, ts, map[string]any{})
	q := strings.ReplaceAll(arch.Truth.SearchTopics[0].Query, " ", "+")
	wantEnvelope(t, "GET", ts.URL+"/api/v1/search/stream?session="+id+"&q="+q, nil, http.StatusNotFound, "not_found")
}

// TestCatchAllRouteLabelsBounded is the regression test for catch-all
// label normalization: arbitrary request paths — unmatched,
// unversioned /api/..., unknown /api/v1/... — must collapse onto the
// one fixed "* /" telemetry label instead of minting one metrics route
// per path. The distributed RPC mux has the matching test in
// internal/distrib.
func TestCatchAllRouteLabelsBounded(t *testing.T) {
	ts, _, srv := newTestServer(t)
	get := func(path string) {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := noRedirectClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for i := 0; i < 20; i++ {
		get(fmt.Sprintf("/random/path%d", i))
		get(fmt.Sprintf("/api/legacy%d", i))
		get(fmt.Sprintf("/api/v1/unknown%d", i))
		get(fmt.Sprintf("/healthz-imposter%d", i))
	}
	snap := srv.Metrics().TakeSnapshot()
	allowed := map[string]bool{routeUnmatched: true}
	for _, pattern := range []string{
		"POST /api/v1/sessions", "GET /api/v1/sessions", "GET /api/v1/sessions/{id}",
		"DELETE /api/v1/sessions/{id}", "GET /api/v1/search",
		"POST /api/v1/events", "GET /api/v1/shots/{id}", "GET /api/v1/healthz", "GET /api/v1/metrics",
		"GET /api/v1/debug/traces", "GET /metrics",
		"GET /api/v1/admin/topology", "POST /api/v1/admin/topology",
	} {
		allowed[pattern] = true
	}
	for route := range snap.Routes {
		if !allowed[route] {
			t.Errorf("unexpected metrics route label %q — per-route metrics exploded", route)
		}
	}
	if n := snap.Routes[routeUnmatched].Count; n != 80 {
		t.Errorf("%q count = %d, want 80", routeUnmatched, n)
	}
}

func TestSessionTTLOverHTTP(t *testing.T) {
	arch, err := synth.Generate(synth.TinyConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemFromCollection(arch.Collection, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The fake clock is read from handler goroutines; guard it.
	var mu sync.Mutex
	now := time.Unix(1_300_000_000, 0)
	nowFn := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	mgr, err := core.NewSessionManager(sys, core.ManagerOptions{TTL: time.Minute, Now: nowFn})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, err := NewServer(sys, WithSessionManager(mgr))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := createSession(t, ts, map[string]any{})
	doJSON(t, "GET", ts.URL+"/api/v1/sessions/"+id, nil, http.StatusOK, nil)
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	wantEnvelope(t, "GET", ts.URL+"/api/v1/sessions/"+id, nil, http.StatusNotFound, "not_found")
}

func TestConcurrentSessions(t *testing.T) {
	ts, arch, _ := newTestServer(t)
	topic := arch.Truth.SearchTopics[0]
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			done <- func() error {
				var created struct {
					SessionID string `json:"session_id"`
				}
				data, _ := json.Marshal(map[string]any{})
				resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", bytes.NewReader(data))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
					return err
				}
				url := fmt.Sprintf("%s/api/v1/search?session=%s&q=%s", ts.URL, created.SessionID,
					strings.ReplaceAll(topic.Query, " ", "+"))
				for j := 0; j < 5; j++ {
					r, err := http.Get(url)
					if err != nil {
						return err
					}
					r.Body.Close()
					if r.StatusCode != http.StatusOK {
						return fmt.Errorf("search status %d", r.StatusCode)
					}
				}
				return nil
			}()
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewServerNil(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("nil system accepted")
	}
}

func TestListSessions(t *testing.T) {
	ts, arch, _ := newTestServer(t)
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, createSession(t, ts, map[string]any{}))
	}
	// Give one session some state so the listing has something to show.
	q := strings.ReplaceAll(arch.Truth.SearchTopics[0].Query, " ", "+")
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/search?session=%s&q=%s", ts.URL, ids[0], q), nil, http.StatusOK, nil)

	var list struct {
		Total    int `json:"total"`
		Offset   int `json:"offset"`
		Limit    int `json:"limit"`
		Sessions []struct {
			SessionID   string  `json:"session_id"`
			IdleSeconds float64 `json:"idle_seconds"`
			Step        int     `json:"step"`
			LastQuery   string  `json:"last_query"`
		} `json:"sessions"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, http.StatusOK, &list)
	if list.Total != 5 || len(list.Sessions) != 5 {
		t.Fatalf("list = total %d, %d entries, want 5/5", list.Total, len(list.Sessions))
	}
	stepped := 0
	for _, e := range list.Sessions {
		if e.Step > 0 {
			stepped++
			if e.LastQuery == "" {
				t.Errorf("session %s has step %d but no last query", e.SessionID, e.Step)
			}
		}
	}
	if stepped != 1 {
		t.Errorf("%d sessions with steps, want 1", stepped)
	}

	// Pagination windows the sorted listing without overlap.
	var page1, page2 struct {
		Total    int `json:"total"`
		Sessions []struct {
			SessionID string `json:"session_id"`
		} `json:"sessions"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/sessions?limit=3", nil, http.StatusOK, &page1)
	doJSON(t, "GET", ts.URL+"/api/v1/sessions?offset=3&limit=3", nil, http.StatusOK, &page2)
	if len(page1.Sessions) != 3 || len(page2.Sessions) != 2 {
		t.Fatalf("pages = %d + %d entries, want 3 + 2", len(page1.Sessions), len(page2.Sessions))
	}
	seen := map[string]bool{}
	for _, e := range append(page1.Sessions, page2.Sessions...) {
		if seen[e.SessionID] {
			t.Errorf("session %s appears in both pages", e.SessionID)
		}
		seen[e.SessionID] = true
	}

	// Bad pagination parameters use the shared validation.
	wantEnvelope(t, "GET", ts.URL+"/api/v1/sessions?offset=-1", nil, http.StatusBadRequest, "invalid_request")
	wantEnvelope(t, "GET", ts.URL+"/api/v1/sessions?limit=9999", nil, http.StatusBadRequest, "invalid_request")

	// Deleting a session removes it from the listing.
	doJSON(t, "DELETE", ts.URL+"/api/v1/sessions/"+ids[2], nil, http.StatusNoContent, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, http.StatusOK, &list)
	if list.Total != 4 {
		t.Errorf("total after delete = %d, want 4", list.Total)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, arch, _ := newTestServer(t)
	id := createSession(t, ts, map[string]any{})
	q := strings.ReplaceAll(arch.Truth.SearchTopics[0].Query, " ", "+")
	for i := 0; i < 3; i++ {
		doJSON(t, "GET", fmt.Sprintf("%s/api/v1/search?session=%s&q=%s", ts.URL, id, q), nil, http.StatusOK, nil)
	}
	wantEnvelope(t, "GET", ts.URL+"/api/v1/shots/nope", nil, http.StatusNotFound, "not_found")

	var m struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		InFlight      int64   `json:"in_flight"`
		Totals        struct {
			Requests  int64 `json:"requests"`
			Errors4xx int64 `json:"errors_4xx"`
		} `json:"totals"`
		Routes map[string]struct {
			Count   int64            `json:"count"`
			Status  map[string]int64 `json:"status"`
			Latency struct {
				Count uint64  `json:"count"`
				P50MS float64 `json:"p50_ms"`
				P95MS float64 `json:"p95_ms"`
				P99MS float64 `json:"p99_ms"`
				MaxMS float64 `json:"max_ms"`
			} `json:"latency"`
		} `json:"routes"`
		Sessions struct {
			Live    int   `json:"live"`
			Created int64 `json:"created"`
		} `json:"sessions"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/metrics", nil, http.StatusOK, &m)

	search := m.Routes["GET /api/v1/search"]
	if search.Count != 3 || search.Status["200"] != 3 {
		t.Errorf("search route = %+v, want 3x 200", search)
	}
	if search.Latency.Count != 3 || search.Latency.MaxMS <= 0 {
		t.Errorf("search latency = %+v", search.Latency)
	}
	if search.Latency.P50MS > search.Latency.P99MS || search.Latency.P99MS > search.Latency.MaxMS*1.1 {
		t.Errorf("latency quantiles out of order: %+v", search.Latency)
	}
	shots := m.Routes["GET /api/v1/shots/{id}"]
	if shots.Status["404"] != 1 {
		t.Errorf("shots route = %+v, want one 404", shots)
	}
	if m.Totals.Errors4xx != 1 {
		t.Errorf("totals = %+v, want one 4xx", m.Totals)
	}
	if m.Sessions.Created != 1 || m.Sessions.Live != 1 {
		t.Errorf("sessions = %+v", m.Sessions)
	}
	if m.InFlight != 1 { // this very /metrics request is in flight
		t.Errorf("in_flight = %d, want 1", m.InFlight)
	}
	if m.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", m.UptimeSeconds)
	}
	// Error responses land in the same route's status table.
	srvURL := ts.URL
	wantEnvelope(t, "GET", srvURL+"/api/v1/search?session="+id, nil, http.StatusBadRequest, "invalid_request")
	doJSON(t, "GET", srvURL+"/api/v1/metrics", nil, http.StatusOK, &m)
	if got := m.Routes["GET /api/v1/search"].Status["400"]; got != 1 {
		t.Errorf("search 400 count = %d, want 1", got)
	}
}

// TestMetricsSearchSection covers the retrieval-engine block of
// /api/v1/metrics: cache hit/miss/entry counters and per-segment
// fan-out timing, plus the normalized "<method> <pattern>" style of
// the catch-all route labels.
func TestMetricsSearchSection(t *testing.T) {
	arch, err := synth.Generate(synth.TinyConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemFromCollection(arch.Collection, core.Config{
		UseImplicit: true, Segments: 3, SearchWorkers: 2, CacheSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	id := createSession(t, ts, map[string]any{})
	q := strings.ReplaceAll(arch.Truth.SearchTopics[0].Query, " ", "+")
	// Same session, same query, no new evidence: second call must hit.
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/search?session=%s&q=%s", ts.URL, id, q), nil, http.StatusOK, nil)
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/search?session=%s&q=%s", ts.URL, id, q), nil, http.StatusOK, nil)
	// Exercise the catch-alls for the label check.
	wantEnvelope(t, "GET", ts.URL+"/api/sessions", nil, http.StatusNotFound, "not_found")
	wantEnvelope(t, "GET", ts.URL+"/nope", nil, http.StatusNotFound, "not_found")

	var m struct {
		Routes map[string]struct {
			Count int64 `json:"count"`
		} `json:"routes"`
		Search struct {
			Cache struct {
				Enabled  bool    `json:"enabled"`
				Hits     int64   `json:"hits"`
				Misses   int64   `json:"misses"`
				Entries  int     `json:"entries"`
				Capacity int     `json:"capacity"`
				HitRatio float64 `json:"hit_ratio"`
			} `json:"cache"`
			Segments []struct {
				Segment  int   `json:"segment"`
				Docs     int   `json:"docs"`
				Searches int64 `json:"searches"`
				Latency  struct {
					Count uint64 `json:"count"`
				} `json:"latency"`
			} `json:"segments"`
			Workers int `json:"workers"`
		} `json:"search"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/metrics", nil, http.StatusOK, &m)

	c := m.Search.Cache
	if !c.Enabled || c.Capacity != 32 {
		t.Errorf("cache block = %+v", c)
	}
	if c.Misses != 1 || c.Hits != 1 || c.Entries != 1 {
		t.Errorf("cache counters = %+v, want 1 miss, 1 hit, 1 entry", c)
	}
	if c.HitRatio != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", c.HitRatio)
	}
	if len(m.Search.Segments) != 3 || m.Search.Workers != 2 {
		t.Fatalf("segments = %+v workers = %d", m.Search.Segments, m.Search.Workers)
	}
	docs := 0
	for i, seg := range m.Search.Segments {
		if seg.Segment != i || seg.Searches == 0 || seg.Latency.Count == 0 {
			t.Errorf("segment %d = %+v, want scored with timing", i, seg)
		}
		docs += seg.Docs
	}
	if docs != arch.Collection.NumShots() {
		t.Errorf("segment docs sum to %d, want %d", docs, arch.Collection.NumShots())
	}
	if n := m.Routes[routeUnmatched].Count; n != 2 {
		t.Errorf("catch-all %q count = %d, want both unknown shapes (2); routes: %v", routeUnmatched, n, keysOf(m.Routes))
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

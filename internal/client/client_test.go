package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/ilog"
	"repro/internal/synth"
	"repro/internal/webapi"
)

// newStack spins up a real webapi server and a client against it: the
// SDK round-trip is tested against the genuine wire format, not a
// mock.
func newStack(t *testing.T, opts ...client.Option) (*client.Client, *synth.Archive) {
	t.Helper()
	arch, err := synth.Generate(synth.TinyConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemFromCollection(arch.Collection, core.Config{UseImplicit: true, UseProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webapi.NewServer(sys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, arch
}

func TestNewValidation(t *testing.T) {
	if _, err := client.New("not a url"); err == nil {
		t.Error("bad URL accepted")
	}
	if _, err := client.New(""); err == nil {
		t.Error("empty URL accepted")
	}
}

func TestHealthz(t *testing.T) {
	c, _ := newStack(t)
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sessions != 0 {
		t.Errorf("health = %+v", h)
	}
}

// TestFullLoop drives the paper's interaction loop end-to-end through
// the SDK: create a profiled session, search, observe click+play
// evidence, re-search (adapted), inspect state and shot metadata,
// delete.
func TestFullLoop(t *testing.T) {
	c, arch := newStack(t)
	ctx := context.Background()
	topic := arch.Truth.SearchTopics[0]

	id, err := c.CreateSession(ctx, client.CreateSessionRequest{
		UserID:    "alice",
		Interests: map[string]float64{"sports": 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty session id")
	}

	page, err := c.Search(ctx, client.SearchRequest{SessionID: id, Query: topic.Query, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Hits) == 0 || page.Step != 1 || page.Total < len(page.Hits) {
		t.Fatalf("page = %+v", page)
	}
	if page.Hits[0].Category == "" || page.Hits[0].Seconds <= 0 {
		t.Errorf("hit missing metadata: %+v", page.Hits[0])
	}
	for i, h := range page.Hits {
		if h.Rank != i {
			t.Errorf("hit %d rank = %d", i, h.Rank)
		}
	}

	top := page.Hits[0].ShotID
	n, err := c.SendEvents(ctx, id, []ilog.Event{
		{Action: ilog.ActionClickKeyframe, ShotID: top, Rank: 0},
		{Action: ilog.ActionPlay, ShotID: top, Rank: 0, Seconds: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("observed = %d", n)
	}

	adapted, err := c.Search(ctx, client.SearchRequest{SessionID: id, Query: topic.Query, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if adapted.Step != 2 {
		t.Errorf("adapted step = %d", adapted.Step)
	}

	st, err := c.Session(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evidence != 2 || st.LastQuery != topic.Query || st.Interests["sports"] != 0.8 {
		t.Errorf("state = %+v", st)
	}

	sh, err := c.Shot(ctx, top)
	if err != nil {
		t.Fatal(err)
	}
	if sh.ShotID != top || sh.Transcript == "" {
		t.Errorf("shot = %+v", sh)
	}

	if err := c.DeleteSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session(ctx, id); !client.IsNotFound(err) {
		t.Errorf("after delete: %v", err)
	}
	// An unknown session surfaces as APIError, not a broken page.
	if _, err := c.Search(ctx, client.SearchRequest{SessionID: "ghost", Query: "x"}); !client.IsNotFound(err) {
		t.Errorf("ghost search err = %v", err)
	}
}

func TestSearchPagination(t *testing.T) {
	c, arch := newStack(t)
	ctx := context.Background()
	topic := arch.Truth.SearchTopics[0]
	id, err := c.CreateSession(ctx, client.CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Search(ctx, client.SearchRequest{SessionID: id, Query: topic.Query, Limit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total < 3 {
		t.Skipf("topic too small (total=%d)", full.Total)
	}
	page, err := c.Search(ctx, client.SearchRequest{SessionID: id, Query: topic.Query, Offset: 1, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Hits) != 2 || page.Hits[0].Rank != 1 {
		t.Fatalf("page = %+v", page)
	}
	if page.Hits[0].ShotID != full.Hits[1].ShotID {
		t.Errorf("offset window mismatch: %s vs %s", page.Hits[0].ShotID, full.Hits[1].ShotID)
	}
}

func TestSearchFacet(t *testing.T) {
	c, arch := newStack(t)
	ctx := context.Background()
	topic := arch.Truth.SearchTopics[0]
	id, err := c.CreateSession(ctx, client.CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	cat := topic.Category.String()
	page, err := c.Search(ctx, client.SearchRequest{
		SessionID: id, Query: topic.Query, Categories: []string{cat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range page.Hits {
		if h.Category != cat {
			t.Fatalf("facet leaked category %q", h.Category)
		}
	}
	if _, err := c.Search(ctx, client.SearchRequest{
		SessionID: id, Query: "x", Categories: []string{"astrology"},
	}); err == nil {
		t.Error("bad category accepted")
	}
}

func TestAPIErrorDetails(t *testing.T) {
	c, _ := newStack(t)
	ctx := context.Background()
	_, err := c.Session(ctx, "ghost")
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T %v", err, err)
	}
	if ae.StatusCode != http.StatusNotFound || ae.Code != "not_found" || ae.Message == "" || ae.RequestID == "" {
		t.Errorf("APIError = %+v", ae)
	}
	if !client.IsNotFound(err) {
		t.Error("IsNotFound = false")
	}
	// Client-side validation errors are not APIErrors.
	if _, err := c.Search(ctx, client.SearchRequest{}); errors.As(err, &ae) {
		t.Errorf("local validation produced APIError: %v", err)
	}
	if _, err := c.SendEvents(ctx, "", nil); err == nil {
		t.Error("empty SendEvents accepted")
	}
}

func TestEventValidationSurfaces(t *testing.T) {
	c, _ := newStack(t)
	ctx := context.Background()
	id, err := c.CreateSession(ctx, client.CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SendEvents(ctx, id, []ilog.Event{{Action: ilog.ActionRate, ShotID: "x", Value: 7}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != "invalid_request" {
		t.Errorf("bad event err = %v", err)
	}
}

// TestRetry5xx: GETs retry through transient 5xx responses; the
// flaky window heals and the call succeeds.
func TestRetry5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadGateway)
			w.Write([]byte(`{"error":{"code":"internal","message":"flaky"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","sessions":0}`))
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health = %+v", h)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("calls = %d, want 3", got)
	}
}

// TestRetryExhaustion: the last 5xx error surfaces as APIError after
// retries run out.
func TestRetryExhaustion(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"internal","message":"down"}}`))
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetry(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Healthz(context.Background())
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err = %v", err)
	}
}

// TestNoRetryOnPost: non-idempotent requests are never re-sent.
func TestNoRetryOnPost(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"internal","message":"down"}}`))
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetry(5, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(context.Background(), client.CreateSessionRequest{}); err == nil {
		t.Fatal("expected error")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("POST attempted %d times, want 1", got)
	}
}

// TestRetryHonoursContext: cancellation stops the retry loop.
func TestRetryHonoursContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetry(100, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Healthz(ctx)
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("retry loop ignored context (%v)", time.Since(start))
	}
}

// TestConcurrentClients hammers one server through many SDK clients;
// run with -race this doubles as the SDK-side concurrency check.
func TestConcurrentClients(t *testing.T) {
	c, arch := newStack(t)
	topic := arch.Truth.SearchTopics[0]
	const workers = 8
	done := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			done <- func() error {
				ctx := context.Background()
				id, err := c.CreateSession(ctx, client.CreateSessionRequest{})
				if err != nil {
					return err
				}
				for j := 0; j < 3; j++ {
					page, err := c.Search(ctx, client.SearchRequest{SessionID: id, Query: topic.Query})
					if err != nil {
						return err
					}
					if len(page.Hits) > 0 {
						if _, err := c.SendEvents(ctx, id, []ilog.Event{
							{Action: ilog.ActionClickKeyframe, ShotID: page.Hits[0].ShotID, Rank: 0},
						}); err != nil {
							return err
						}
					}
				}
				return c.DeleteSession(ctx, id)
			}()
		}()
	}
	for i := 0; i < workers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestListSessions(t *testing.T) {
	c, _ := newStack(t)
	ctx := context.Background()
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := c.CreateSession(ctx, client.CreateSessionRequest{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	list, err := c.ListSessions(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if list.Total != 4 || len(list.Sessions) != 4 {
		t.Fatalf("list = total %d with %d entries, want 4/4", list.Total, len(list.Sessions))
	}
	// Windowed page.
	page, err := c.ListSessions(ctx, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 4 || len(page.Sessions) != 2 || page.Offset != 2 {
		t.Fatalf("page = %+v", page)
	}
	if err := c.DeleteSession(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	list, err = c.ListSessions(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if list.Total != 3 {
		t.Fatalf("total after delete = %d, want 3", list.Total)
	}
}

func TestMetrics(t *testing.T) {
	c, arch := newStack(t)
	ctx := context.Background()
	id, err := c.CreateSession(ctx, client.CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	q := arch.Truth.SearchTopics[0].Query
	for i := 0; i < 2; i++ {
		if _, err := c.Search(ctx, client.SearchRequest{SessionID: id, Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	search := m.Routes["GET /api/v1/search"]
	if search.Count != 2 || search.Status["200"] != 2 {
		t.Errorf("search route = %+v, want 2x 200", search)
	}
	if search.Latency.Count != 2 || search.Latency.P50MS < 0 {
		t.Errorf("search latency = %+v", search.Latency)
	}
	if m.Sessions.Created != 1 || m.Sessions.Live != 1 {
		t.Errorf("sessions = %+v", m.Sessions)
	}
	if m.Totals.Requests < 3 {
		t.Errorf("totals = %+v, want >= 3 requests", m.Totals)
	}
}

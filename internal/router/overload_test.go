package router_test

// Overload-protocol tests for what only the front tier does: the
// router mints an X-IVR-Deadline budget for search traffic, decrements
// (never raises) an inbound budget across its hop, and answers spent or
// malformed budgets itself without burning a forward on them.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/overload"
	"repro/internal/router"
)

// deadlineEcho is a stand-in replica that records the deadline header
// of every forwarded request.
type deadlineEcho struct {
	hits    atomic.Int64
	lastRaw atomic.Value // string
}

func (d *deadlineEcho) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/healthz" {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, `{"status":"ok"}`)
			return
		}
		d.hits.Add(1)
		d.lastRaw.Store(r.Header.Get(overload.DeadlineHeader))
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{}`)
	})
}

func (d *deadlineEcho) last(t *testing.T) (time.Duration, bool) {
	t.Helper()
	raw, _ := d.lastRaw.Load().(string)
	if raw == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("upstream saw unparseable deadline %q", raw)
	}
	return time.Duration(ms) * time.Millisecond, true
}

func newDeadlineTier(t *testing.T, cfg router.Config) (*deadlineEcho, *httptest.Server) {
	t.Helper()
	echo := &deadlineEcho{}
	up := httptest.NewServer(echo.handler())
	t.Cleanup(up.Close)
	cfg.Replicas = []string{up.URL}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // no background probes during the test
	}
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	return echo, front
}

func TestRouterMintsSearchDeadline(t *testing.T) {
	echo, front := newDeadlineTier(t, router.Config{SearchDeadline: 2 * time.Second})
	resp, err := http.Get(front.URL + "/api/v1/search?session=s&q=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got, ok := echo.last(t)
	if !ok {
		t.Fatal("router forwarded search without minting a deadline budget")
	}
	if got <= 0 || got > 2*time.Second {
		t.Fatalf("minted budget %v outside (0, 2s]", got)
	}

	// Non-search traffic gets no minted budget.
	resp, err = http.Get(front.URL + "/api/v1/shots/abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := echo.last(t); ok {
		t.Fatal("router minted a deadline for non-search traffic")
	}
}

func TestRouterDecrementsInboundDeadline(t *testing.T) {
	echo, front := newDeadlineTier(t, router.Config{})
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/api/v1/shots/abc", nil)
	req.Header.Set(overload.DeadlineHeader, "5000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got, ok := echo.last(t)
	if !ok {
		t.Fatal("inbound deadline budget was dropped at the router hop")
	}
	if got <= 0 || got > 5*time.Second {
		t.Fatalf("forwarded budget %v outside (0, 5s] — a budget must never grow across a hop", got)
	}
}

// TestRouterBurnsNoForwardOnRefusedDeadlines: a spent or malformed
// budget is answered at the router (the typed answers themselves are
// pinned for every tier by the contract table in internal/tier); no
// replica sees the request.
func TestRouterBurnsNoForwardOnRefusedDeadlines(t *testing.T) {
	echo, front := newDeadlineTier(t, router.Config{})
	for raw, status := range map[string]int{"0": http.StatusGatewayTimeout, "bogus": http.StatusBadRequest} {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/api/v1/search?session=s&q=x", nil)
		req.Header.Set(overload.DeadlineHeader, raw)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("deadline %q: status %d, want %d", raw, resp.StatusCode, status)
		}
	}
	if n := echo.hits.Load(); n != 0 {
		t.Fatalf("router burned %d forwards on requests it should have answered itself", n)
	}
}

package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/overload"
)

// newIdleRouter builds a router whose probe loop is effectively
// parked, for unit tests that never talk to a backend.
func newIdleRouter(t *testing.T, replicas ...string) *Router {
	t.Helper()
	rt, err := New(Config{Replicas: replicas, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func TestRendezvousDeterministicAndStable(t *testing.T) {
	reps := []string{"http://a:1", "http://b:1", "http://c:1"}
	rt := newIdleRouter(t, reps...)
	rt2 := newIdleRouter(t, reps[2], reps[0], reps[1]) // different config order

	owners := map[string]int{}
	for i := 0; i < 200; i++ {
		sid := fmt.Sprintf("sess-%d", i)
		order := rt.rendezvousOrder(sid)
		if len(order) != 3 {
			t.Fatalf("order length %d", len(order))
		}
		// Same session, same answer — on every call and on every
		// router instance, regardless of replica list order.
		if again := rt.rendezvousOrder(sid); again[0] != order[0] {
			t.Fatalf("session %s: owner flapped", sid)
		}
		if other := rt2.rendezvousOrder(sid); other[0].name != order[0].name {
			t.Fatalf("session %s: routers disagree (%s vs %s)", sid, order[0].name, other[0].name)
		}
		owners[order[0].name]++
	}
	// HRW should spread sessions over all replicas (not necessarily
	// evenly at n=200, but nobody should be starved).
	for _, rep := range reps {
		if owners[rep] == 0 {
			t.Fatalf("replica %s owns no sessions: %v", rep, owners)
		}
	}
}

func TestRendezvousFailoverIsMinimal(t *testing.T) {
	rt := newIdleRouter(t, "http://a:1", "http://b:1", "http://c:1")
	moved := 0
	for i := 0; i < 200; i++ {
		sid := fmt.Sprintf("sess-%d", i)
		before := rt.Owner(sid)
		// Take one specific replica down: only its sessions may move.
		for _, rep := range rt.replicas {
			if rep.name == "http://b:1" {
				rep.healthy.Store(false)
			}
		}
		after := rt.Owner(sid)
		for _, rep := range rt.replicas {
			rep.healthy.Store(true)
		}
		if before == "http://b:1" {
			if after == "http://b:1" || after == "" {
				t.Fatalf("session %s: not re-routed off dead owner", sid)
			}
			moved++
		} else if after != before {
			t.Fatalf("session %s: moved from %s to %s though its owner stayed up", sid, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("dead replica owned no sessions; test proved nothing")
	}
}

func TestSessionIDExtraction(t *testing.T) {
	cases := []struct {
		method, url string
		body        string
		want        string
	}{
		{"GET", "/api/v1/search?session=s42&q=x", "", "s42"},
		{"GET", "/api/v1/sessions/s42", "", "s42"},
		{"DELETE", "/api/v1/sessions/s%2F42", "", "s/42"},
		{"GET", "/api/v1/sessions", "", ""},
		{"POST", "/api/v1/events", `{"session_id":"s42","events":[]}`, "s42"},
		{"POST", "/api/v1/events", `not json`, ""},
		{"POST", "/api/v1/sessions", `{"user_id":"u"}`, ""},
		{"GET", "/api/v1/shots/v0001_s003", "", ""},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(tc.method, tc.url, nil)
		if got := sessionID(r, []byte(tc.body)); got != tc.want {
			t.Errorf("%s %s (body %q): session %q, want %q", tc.method, tc.url, tc.body, got, tc.want)
		}
	}
}

func TestRoundRobinCoversAllReplicas(t *testing.T) {
	rt := newIdleRouter(t, "http://a:1", "http://b:1")
	first := map[string]int{}
	for i := 0; i < 10; i++ {
		order := rt.roundRobinOrder()
		if len(order) != 2 || order[0] == order[1] {
			t.Fatalf("bad round-robin order %v", order)
		}
		first[order[0].name]++
	}
	if first["http://a:1"] != 5 || first["http://b:1"] != 5 {
		t.Fatalf("round-robin skew: %v", first)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no replicas accepted")
	}
	if _, err := New(Config{Replicas: []string{"not a url"}}); err == nil {
		t.Fatal("bad URL accepted")
	}
	if _, err := New(Config{Replicas: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Fatal("duplicate replica accepted")
	}
	if _, err := New(Config{Replicas: []string{"http://a:1"}, ProbeInterval: -time.Second}); err == nil {
		t.Fatal("negative probe interval accepted")
	}
}

func TestIsDrainingResponse(t *testing.T) {
	mk := func(retryAfter, body string) *http.Response {
		rec := httptest.NewRecorder()
		if retryAfter != "" {
			rec.Header().Set("Retry-After", retryAfter)
		}
		rec.WriteHeader(http.StatusServiceUnavailable)
		rec.WriteString(body)
		return rec.Result()
	}
	if !isDrainingResponse(mk("1", `{"error":{"code":"draining","message":"x"}}`)) {
		t.Fatal("draining envelope not recognised")
	}
	if isDrainingResponse(mk("", `{"error":{"code":"draining","message":"x"}}`)) {
		t.Fatal("503 without Retry-After treated as draining")
	}
	// A rate-limit style 503 with Retry-After but another code must be
	// relayed, not re-routed — and its body must survive the peek.
	resp := mk("1", `{"error":{"code":"overloaded","message":"x"}}`)
	if isDrainingResponse(resp) {
		t.Fatal("non-draining 503 treated as draining")
	}
	buf := make([]byte, 64)
	n, _ := resp.Body.Read(buf)
	if got := string(buf[:n]); got == "" || got[0] != '{' {
		t.Fatalf("peeked body not restored: %q", got)
	}
}

// TestDefaultClientHasBoundedTimeouts is the regression test for the
// bare &http.Client{} the router once shipped with: a wedged replica
// that accepted connections but never answered could pin proxy
// goroutines forever. The default client must bound dial and
// response-header waits, and the whole request at overload.MaxBudget:
// no legal deadline budget is longer, so the cap cuts no legal request
// while a replica that stalls mid-body still lets go.
func TestDefaultClientHasBoundedTimeouts(t *testing.T) {
	rt, err := New(Config{Replicas: []string{"http://a:1"}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	tr, ok := rt.client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default client transport is %T, want *http.Transport with bounded timeouts", rt.client.Transport)
	}
	if tr.DialContext == nil {
		t.Fatal("default transport has no bounded dialer")
	}
	if tr.ResponseHeaderTimeout <= 0 {
		t.Fatal("default transport does not bound the response-header wait")
	}
	if tr.TLSHandshakeTimeout <= 0 {
		t.Fatal("default transport does not bound the TLS handshake")
	}
	if rt.client.Timeout != overload.MaxBudget {
		t.Fatalf("default client whole-request timeout = %v, want overload.MaxBudget (%v)", rt.client.Timeout, overload.MaxBudget)
	}
}

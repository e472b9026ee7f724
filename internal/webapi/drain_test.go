package webapi

import (
	"net/http"
	"net/url"
	"testing"

	"repro/internal/sessionstore"
	"repro/internal/tier"
)

func TestDrainRespondsRetryAfter(t *testing.T) {
	store := sessionstore.NewMemoryStore()
	ts, arch, srv := newTestServer(t, WithSessionStore(store), WithReplicaID("r1"))
	id := createSession(t, ts, nil)
	q := arch.Truth.SearchTopics[0].Query

	// Healthy replica: replica ID on every response, healthz "ok".
	var hz struct {
		Status   string `json:"status"`
		Replica  string `json:"replica"`
		Draining bool   `json:"draining"`
	}
	resp := doJSON(t, "GET", ts.URL+"/api/v1/healthz", nil, http.StatusOK, &hz)
	if hz.Status != "ok" || hz.Replica != "r1" || hz.Draining {
		t.Fatalf("healthz before drain = %+v", hz)
	}
	if got := resp.Header.Get(ReplicaHeader); got != "r1" {
		t.Fatalf("%s = %q, want r1", ReplicaHeader, got)
	}

	flushed, err := srv.BeginDrain()
	if err != nil {
		t.Fatal(err)
	}
	if flushed != 1 {
		t.Fatalf("BeginDrain flushed %d sessions, want 1", flushed)
	}

	// Session-touching routes answer 503 + Retry-After + "draining".
	req, err := http.NewRequest("GET", ts.URL+"/api/v1/search?session="+id+"&q="+url.QueryEscape(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("search while draining: status %d", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}
	wantEnvelope(t, "POST", ts.URL+"/api/v1/sessions", map[string]any{}, http.StatusServiceUnavailable, tier.CodeDraining)

	// Liveness flips to draining but stays 200 (the probe is how the
	// router learns, not an error path).
	doJSON(t, "GET", ts.URL+"/api/v1/healthz", nil, http.StatusOK, &hz)
	if hz.Status != "draining" || !hz.Draining {
		t.Fatalf("healthz after drain = %+v", hz)
	}

	// The flushed session is in the store, adoptable by a sibling.
	if _, err := store.Get(id); err != nil {
		t.Fatalf("drained session not in store: %v", err)
	}
}

package webapi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/retrieval"
	"repro/internal/tier"
)

// stubTopoAdmin records ApplyTopology calls and scripts their outcome.
type stubTopoAdmin struct {
	applied [][]byte
	err     error
	view    map[string]any
}

func (s *stubTopoAdmin) ApplyTopology(_ context.Context, descriptor []byte) error {
	if s.err != nil {
		return s.err
	}
	s.applied = append(s.applied, append([]byte(nil), descriptor...))
	return nil
}

func (s *stubTopoAdmin) DescribeTopology() any { return s.view }

func TestTopologyAdminEndpoint(t *testing.T) {
	stub := &stubTopoAdmin{view: map[string]any{"segments": float64(4)}}
	ts, _, _ := newTestServer(t, WithTopologyAdmin(stub))

	// GET serves whatever the admin describes.
	var got map[string]any
	doJSON(t, "GET", ts.URL+"/api/v1/admin/topology", nil, http.StatusOK, &got)
	if got["segments"] != float64(4) {
		t.Fatalf("GET view = %v", got)
	}

	// A POST the admin accepts echoes the (post-reload) view back and
	// delivers the exact descriptor bytes.
	desc := `{"version":1,"groups":[{"replicas":["http://a:1"]}]}`
	resp, err := http.Post(ts.URL+"/api/v1/admin/topology", "application/json", strings.NewReader(desc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("accepted POST status = %d", resp.StatusCode)
	}
	if len(stub.applied) != 1 || string(stub.applied[0]) != desc {
		t.Fatalf("admin saw %q", stub.applied)
	}

	// A rejected descriptor surfaces as a 400 envelope with the typed
	// error's text.
	stub.err = errors.New("distrib: topology mismatches running cluster")
	resp2, err := http.Post(ts.URL+"/api/v1/admin/topology", "application/json", strings.NewReader(desc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("rejected POST status = %d, want 400", resp2.StatusCode)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != tier.CodeInvalid || !strings.Contains(env.Error.Message, "mismatches") {
		t.Fatalf("envelope = %+v", env)
	}

	// A descriptor over the 1 MiB cap is refused before the admin ever
	// sees it.
	stub.err = nil
	huge := strings.Repeat(" ", maxTopologyBody+1)
	resp3, err := http.Post(ts.URL+"/api/v1/admin/topology", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize POST status = %d, want 413", resp3.StatusCode)
	}
	if len(stub.applied) != 1 {
		t.Fatalf("oversize descriptor reached the admin (%d applies)", len(stub.applied))
	}
}

func TestTopologyAdminUnconfigured(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, m := range []string{"GET", "POST"} {
		req, err := http.NewRequest(m, ts.URL+"/api/v1/admin/topology", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without admin wired: status %d, want 404", m, resp.StatusCode)
		}
	}
}

// TestPrometheusBackendFamilies: when the retrieval snapshot reports
// backends, the scrape body carries the hedge/failover/health families
// (the CI chaos smoke greps for ivr_rpc_hedge_total).
func TestPrometheusBackendFamilies(t *testing.T) {
	ts, _, srv := newTestServer(t)
	srv.sys.SetBackendTelemetry(func() []retrieval.BackendSummary {
		return []retrieval.BackendSummary{{Addr: "http://seg1:1", Healthy: true, Hedges: 3, Failovers: 1}}
	})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`ivr_backend_healthy{backend="http://seg1:1"} 1`,
		`ivr_rpc_hedge_total{backend="http://seg1:1"} 3`,
		`ivr_rpc_failover_total{backend="http://seg1:1"} 1`,
		"ivr_probe_failures_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

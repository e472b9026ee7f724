package distrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/tier"
)

// newRPCServer hosts every segment of a small corpus on one
// httptest-backed segment server.
func newRPCServer(t *testing.T, segments int) (*httptest.Server, *SegmentServer, *index.Sharded) {
	t.Helper()
	_, sh := buildCorpus(t, 3, 60, segments)
	srv, err := NewSegmentServer(ServerConfig{Sharded: sh})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, sh
}

// wantRPCEnvelope asserts the uniform error body (mirroring the
// /api/v1 envelope helpers in internal/webapi's tests).
func wantRPCEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error response content type %q", ct)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Error.Code != wantCode || env.Error.Message == "" {
		t.Fatalf("envelope = %+v, want code %q with message", env, wantCode)
	}
}

// validSearchRequest builds a well-formed request for segment 0.
func validSearchRequest() SearchRequest {
	return SearchRequest{
		Segment: 0,
		Field:   "text",
		Terms:   []WireTerm{{Term: "goal", Weight: 1}},
		Stats:   []WireTermStats{{N: 60, AvgDocLen: 7, TotalLen: 420, DF: 20, CF: 35, Weight: 1}},
		Scorer:  ScorerSpec{Name: "bm25"},
		K:       10,
	}
}

// postFrame posts body to the search endpoint as an IVRB frame.
func postFrame(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+SearchPath, ContentTypeBinary, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// frameOf encodes req as an IVRB request frame.
func frameOf(req SearchRequest) []byte { return AppendSearchRequest(nil, &req) }

func TestRPCStatsEndpoint(t *testing.T) {
	ts, _, sh := newRPCServer(t, 3)
	resp, err := http.Get(ts.URL + StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Segments != 3 || len(st.Hosted) != 3 {
		t.Fatalf("topology %d/%d, want 3/3", st.Segments, len(st.Hosted))
	}
	if st.CollectionHash != CollectionHash(sh) {
		t.Error("stats hash differs from local recomputation")
	}
	for ord, seg := range st.Hosted {
		if seg.Segment != ord {
			t.Errorf("hosted[%d] is segment %d", ord, seg.Segment)
		}
		if seg.NumDocs != sh.Segment(ord).NumDocs() || len(seg.ExtIDs) != seg.NumDocs {
			t.Errorf("segment %d doc counts inconsistent", ord)
		}
		fs, ok := seg.Fields["text"]
		if !ok || fs.TotalLen != sh.Segment(ord).TotalFieldLen(index.FieldText) {
			t.Errorf("segment %d text stats wrong", ord)
		}
		if fs.Terms["goal"].DF != sh.Segment(ord).DocFreq(index.FieldText, "goal") {
			t.Errorf("segment %d df(goal) wrong", ord)
		}
	}
}

// TestRPCSearchEndpoint checks the happy path against a direct
// invocation of the shared scoring kernel: an IVRB request is answered
// with an IVRB frame, exactly Content-Length long, whose hits are
// bit-identical to the kernel's.
func TestRPCSearchEndpoint(t *testing.T) {
	ts, _, sh := newRPCServer(t, 3)
	resp := postFrame(t, ts.URL, frameOf(validSearchRequest()))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	}
	var out SearchResponse
	if err := decodeSearchResponse(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Segment != 0 {
		t.Fatalf("segment echo %d, want 0", out.Segment)
	}
	want := search.ScoreIndexSegment(sh.Segment(0), func(d index.DocID) index.DocID {
		return sh.GlobalID(0, d)
	}, search.Query{
		Field: index.FieldText,
		Terms: []search.WeightedTerm{{Term: "goal", Weight: 1}},
	}, []search.TermStats{{N: 60, AvgDocLen: 7, TotalLen: 420, DF: 20, CF: 35, Weight: 1}},
		search.BM25{}, nil, 10)
	if out.Candidates != want.Candidates || len(out.Hits) != len(want.Hits) {
		t.Fatalf("got %d hits/%d candidates, want %d/%d",
			len(out.Hits), out.Candidates, len(want.Hits), want.Candidates)
	}
	for i, h := range out.Hits {
		if h.ID != want.Hits[i].ID || math.Float64bits(h.Score) != math.Float64bits(want.Hits[i].Score) ||
			index.DocID(h.Doc) != want.Hits[i].Doc {
			t.Fatalf("hit %d: %+v != %+v (IVRB must carry scores bit-exactly)", i, h, want.Hits[i])
		}
	}
}

// TestRPCSearchRejectsJSON: a body in any media type but IVRB — here a
// complete, well-formed JSON search — is refused with the typed 415
// envelope before it is read or admitted.
func TestRPCSearchRejectsJSON(t *testing.T) {
	ts, srv, _ := newRPCServer(t, 2)
	resp, err := http.Post(ts.URL+SearchPath, "application/json", strings.NewReader(
		`{"segment":0,"field":"text","terms":[{"term":"goal","weight":1}],`+
			`"stats":[{"n":60,"avg_doc_len":7,"total_len":420,"df":20,"cf":35,"weight":1}],`+
			`"scorer":{"name":"bm25"},"k":10}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d, want 415 (%s)", resp.StatusCode, body)
	}
	want := `{"error":{"code":"invalid_request","message":"content type \"application/json\", want application/x-ivr-search"}}` + "\n"
	if string(body) != want {
		t.Fatalf("body %q, want %q", body, want)
	}
	if n := srv.Gate().Admission().Stats().Admitted; n != 0 {
		t.Errorf("refused body was admitted (%d)", n)
	}
}

// TestRPCSearchErrors drives every request-validation branch into its
// envelope.
func TestRPCSearchErrors(t *testing.T) {
	ts, _, _ := newRPCServer(t, 3)
	mutate := func(fn func(*SearchRequest)) []byte {
		req := validSearchRequest()
		fn(&req)
		return frameOf(req)
	}
	cases := []struct {
		name       string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"malformed frame", []byte("{nope"), http.StatusBadRequest, tier.CodeInvalid},
		{"not hosted", mutate(func(r *SearchRequest) { r.Segment = 7 }), http.StatusNotFound, tier.CodeNotFound},
		{"negative segment", mutate(func(r *SearchRequest) { r.Segment = -1 }), http.StatusNotFound, tier.CodeNotFound},
		{"bad field", mutate(func(r *SearchRequest) { r.Field = "vibes" }), http.StatusBadRequest, tier.CodeInvalid},
		{"empty terms", mutate(func(r *SearchRequest) { r.Terms = nil; r.Stats = nil }), http.StatusBadRequest, tier.CodeInvalid},
		{"stats mismatch", mutate(func(r *SearchRequest) { r.Stats = append(r.Stats, r.Stats[0]) }), http.StatusBadRequest, tier.CodeInvalid},
		{"unknown scorer", mutate(func(r *SearchRequest) { r.Scorer = ScorerSpec{Name: "vibes"} }), http.StatusBadRequest, tier.CodeInvalid},
		{"negative weight", mutate(func(r *SearchRequest) { r.Terms[0].Weight = -1 }), http.StatusBadRequest, tier.CodeInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRPCEnvelope(t, postFrame(t, ts.URL, tc.body), tc.wantStatus, tc.wantCode)
		})
	}
}

// TestRPCSearchOversizedBody: bodies past MaxSearchBody are refused
// with 413, not read to the end.
func TestRPCSearchOversizedBody(t *testing.T) {
	ts, _, _ := newRPCServer(t, 2)
	// A well-formed frame whose field name alone crosses the limit, so
	// the read hits the MaxBytesReader cap rather than a decode error.
	req := validSearchRequest()
	req.Field = strings.Repeat("a", MaxSearchBody)
	wantRPCEnvelope(t, postFrame(t, ts.URL, frameOf(req)), http.StatusRequestEntityTooLarge, tier.CodeTooLarge)
}

func TestRPCHealthz(t *testing.T) {
	ts, _, _ := newRPCServer(t, 3)
	resp, err := http.Get(ts.URL + HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status   string `json:"status"`
		Segments int    `json:"segments"`
		Hosted   []int  `json:"hosted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || out.Segments != 3 || !reflect.DeepEqual(out.Hosted, []int{0, 1, 2}) {
		t.Fatalf("healthz = %+v", out)
	}
}

// TestRPCRouteLabelNormalization is the regression test for catch-all
// label normalization on the RPC mux: arbitrary request paths must
// collapse onto the fixed "* /rpc/" and "* /" labels instead of
// minting one metrics route per path.
func TestRPCRouteLabelNormalization(t *testing.T) {
	ts, srv, _ := newRPCServer(t, 2)
	// A valid call plus a storm of junk paths.
	postFrame(t, ts.URL, frameOf(validSearchRequest())).Body.Close()
	for i := 0; i < 25; i++ {
		for _, path := range []string{
			fmt.Sprintf("/rpc/v1/bogus%d", i),
			fmt.Sprintf("/rpc/other/%d", i),
			fmt.Sprintf("/completely/random/%d", i),
		} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			wantRPCEnvelope(t, resp, http.StatusNotFound, tier.CodeNotFound)
		}
	}
	snap := srv.Metrics().TakeSnapshot()
	allowed := map[string]bool{
		"GET " + StatsPath:        true,
		"POST " + SearchPath:      true,
		"GET " + HealthPath:       true,
		"GET " + MetricsPath:      true,
		"GET " + MetricsAliasPath: true,
		"GET " + TracesPath:       true,
		routeRPCUnmatched:         true,
		routeUnmatched:            true,
	}
	for route := range snap.Routes {
		if !allowed[route] {
			t.Errorf("unexpected metrics route label %q — per-route metrics exploded", route)
		}
	}
	if n := snap.Routes[routeRPCUnmatched].Count; n != 50 {
		t.Errorf("%q count = %d, want 50", routeRPCUnmatched, n)
	}
	if n := snap.Routes[routeUnmatched].Count; n != 25 {
		t.Errorf("%q count = %d, want 25", routeUnmatched, n)
	}
	if snap.Totals.Errors4xx != 75 {
		t.Errorf("4xx total = %d, want 75", snap.Totals.Errors4xx)
	}
}

// TestRPCMetricsEndpoint: the RPC server publishes its own per-route
// snapshot.
func TestRPCMetricsEndpoint(t *testing.T) {
	ts, _, _ := newRPCServer(t, 2)
	if _, err := http.Get(ts.URL + StatsPath); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Routes map[string]struct {
			Count int64 `json:"count"`
		} `json:"routes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Routes["GET "+StatsPath].Count < 1 {
		t.Errorf("stats route not counted: %+v", snap.Routes)
	}
}

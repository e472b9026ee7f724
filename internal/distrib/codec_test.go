package distrib

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/search"
	"repro/internal/tier"
)

// codecRequest builds a request with every field shape the codec must
// preserve: multi-term lists, a negative K, and floats whose bits a
// lossy format would mangle.
func codecRequest() SearchRequest {
	return SearchRequest{
		Segment: 3,
		Field:   "text",
		Terms: []WireTerm{
			{Term: "goal", Weight: 1},
			{Term: "stadium", Weight: 0.3333333333333333},
			{Term: "", Weight: 0},
		},
		Stats: []WireTermStats{
			{N: 60, AvgDocLen: 7.142857142857143, TotalLen: 420, DF: 20, CF: 35, Weight: 1},
			{N: 60, AvgDocLen: 7.142857142857143, TotalLen: 420, DF: 0, CF: 0, Weight: 0.3333333333333333},
			{N: 60, AvgDocLen: 7.142857142857143, TotalLen: 420, DF: 1, CF: 1, Weight: 0},
		},
		Scorer: ScorerSpec{Name: "bm25", K1: 1.2000000000000002, B: 0.75},
		K:      -1,
	}
}

// TestBinaryCodecRoundTrip pins both message types bit-exactly through
// encode/decode, including reuse of a pooled destination struct.
func TestBinaryCodecRoundTrip(t *testing.T) {
	want := codecRequest()
	frame := appendSearchRequest(nil, &want)
	// Decode into a dirty struct: stale fields must not leak through.
	got := SearchRequest{
		Segment: 99, Field: "concept", K: 7,
		Terms: []WireTerm{{Term: "stale", Weight: 9}},
		Stats: []WireTermStats{{N: 1}},
	}
	if err := decodeSearchRequest(frame, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("request round trip:\n got %+v\nwant %+v", got, want)
	}

	hits := []WireHit{
		{Doc: 0, ID: "", Score: math.Nextafter(1, 2)},
		{Doc: math.MaxUint32, ID: "s0042", Score: 7.614729834512345},
		{Doc: 17, ID: "shot", Score: 0},
	}
	rframe := appendSearchResponse(nil, 5, hits, 123)
	var seg, cand int
	out := SearchResponse{Segment: &seg, Candidates: &cand}
	if err := decodeSearchResponse(rframe, &out); err != nil {
		t.Fatal(err)
	}
	if seg != 5 || cand != 123 || !reflect.DeepEqual(out.Hits, hits) {
		t.Fatalf("response round trip: segment=%d candidates=%d hits=%+v", seg, cand, out.Hits)
	}
	for i := range hits {
		if math.Float64bits(out.Hits[i].Score) != math.Float64bits(hits[i].Score) {
			t.Fatalf("hit %d score bits changed across the wire", i)
		}
	}

	// Empty hit lists are a normal result, not an error.
	empty := appendSearchResponse(nil, 0, nil, 0)
	out = SearchResponse{Segment: &seg, Candidates: &cand, Hits: []WireHit{{ID: "stale"}}}
	if err := decodeSearchResponse(empty, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Hits) != 0 {
		t.Fatalf("empty response decoded %d hits", len(out.Hits))
	}
}

// TestBinaryCodecMalformed drives the decoder's structural checks:
// every case must error, never panic, never silently accept.
func TestBinaryCodecMalformed(t *testing.T) {
	good := appendSearchRequest(nil, &SearchRequest{
		Field: "text", Terms: []WireTerm{{Term: "goal", Weight: 1}},
		Stats: []WireTermStats{{N: 1, DF: 1, CF: 1, Weight: 1}}, Scorer: ScorerSpec{Name: "bm25"}, K: 10,
	})
	goodResp := appendSearchResponse(nil, 0, []WireHit{{Doc: 1, ID: "x", Score: 1}}, 1)
	mutate := func(src []byte, fn func([]byte)) []byte {
		b := append([]byte(nil), src...)
		fn(b)
		return b
	}
	hugeCount := func(src []byte, v uint64) []byte {
		// Replace the term-count varint (first byte after segment,
		// field "text") with an inflated value and fix the frame length.
		b := append([]byte(nil), src[:binHeaderLen+1+1+4]...)
		b = binary.AppendUvarint(b, v)
		b = append(b, src[binHeaderLen+1+1+4+1:]...)
		binary.LittleEndian.PutUint32(b[6:10], uint32(len(b)-binHeaderLen))
		return b
	}
	cases := []struct {
		name string
		req  bool
		buf  []byte
	}{
		{"empty", true, nil},
		{"short header", true, good[:binHeaderLen-1]},
		{"bad magic", true, mutate(good, func(b []byte) { b[0] = 'X' })},
		{"bad version", true, mutate(good, func(b []byte) { b[4] = 9 })},
		{"wrong msg type", true, goodResp},
		{"wrong msg type resp", false, good},
		{"length larger than frame", true, mutate(good, func(b []byte) {
			binary.LittleEndian.PutUint32(b[6:10], uint32(len(b)))
		})},
		{"length smaller than frame", true, mutate(good, func(b []byte) {
			binary.LittleEndian.PutUint32(b[6:10], 1)
		})},
		{"truncated payload", true, mutate(good[:len(good)-3], func(b []byte) {
			binary.LittleEndian.PutUint32(b[6:10], uint32(len(b)-binHeaderLen))
		})},
		{"term count over cap", true, hugeCount(good, maxWireTerms+1)},
		{"term count over payload", true, hugeCount(good, maxWireTerms-1)},
		{"hit count over payload", false, mutate(goodResp, func(b []byte) {
			// nHits sits after two 1-byte varints (segment, candidates).
			b[binHeaderLen+2] = 200
		})},
		{"trailing bytes", true, mutate(append(good, 0xAA), func(b []byte) {
			binary.LittleEndian.PutUint32(b[6:10], uint32(len(b)-binHeaderLen))
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.req {
				err = decodeSearchRequest(tc.buf, &SearchRequest{})
			} else {
				var seg, cand int
				err = decodeSearchResponse(tc.buf, &SearchResponse{Segment: &seg, Candidates: &cand})
			}
			if err == nil {
				t.Fatal("malformed frame decoded without error")
			}
		})
	}
}

// TestBinaryCodecCorruptionFuzz flips random bits and truncates valid
// frames at random offsets: the decoders must never panic (errors are
// fine — and for payload corruption past the header, decoding to the
// wrong values without an error is acceptable only because the server
// re-validates every field semantically).
func TestBinaryCodecCorruptionFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	req := codecRequest()
	reqFrame := appendSearchRequest(nil, &req)
	respFrame := appendSearchResponse(nil, 2, []WireHit{
		{Doc: 9, ID: "s0009", Score: 3.25}, {Doc: 14, ID: "s0014", Score: 1.5},
	}, 7)
	for trial := 0; trial < 500; trial++ {
		for _, src := range [][]byte{reqFrame, respFrame} {
			b := append([]byte(nil), src...)
			switch r.Intn(3) {
			case 0:
				b[r.Intn(len(b))] ^= byte(1 << r.Intn(8))
			case 1:
				b = b[:r.Intn(len(b))]
			default:
				b[r.Intn(len(b))] ^= byte(1 << r.Intn(8))
				b = b[:1+r.Intn(len(b))]
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("trial %d: decoder panicked: %v", trial, p)
					}
				}()
				_ = decodeSearchRequest(b, &SearchRequest{})
				var seg, cand int
				_ = decodeSearchResponse(b, &SearchResponse{Segment: &seg, Candidates: &cand})
			}()
		}
	}
}

// TestRPCSearchBinaryEndpoint is the server half of the negotiation
// contract: a binary request gets a binary response whose decoded
// hits are bit-identical to the JSON rendering of the same query, and
// the codec counters attribute each body to its framing.
func TestRPCSearchBinaryEndpoint(t *testing.T) {
	ts, srv, _ := newRPCServer(t, 3)
	req := validSearchRequest()

	jbody, _ := json.Marshal(req)
	jresp := postSearch(t, ts.URL, jbody)
	var want SearchResponse
	if err := json.NewDecoder(jresp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()

	frame := appendSearchRequest(nil, &req)
	resp, err := http.Post(ts.URL+SearchPath, ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("binary request answered with content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if cl := resp.ContentLength; cl != int64(buf.Len()) {
		t.Fatalf("Content-Length %d, body %d bytes", cl, buf.Len())
	}
	var seg, cand int
	got := SearchResponse{Segment: &seg, Candidates: &cand}
	if err := decodeSearchResponse(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if seg != *want.Segment || cand != *want.Candidates || !reflect.DeepEqual(got.Hits, want.Hits) {
		t.Fatalf("binary response diverged from JSON:\n got seg=%d cand=%d %+v\nwant seg=%d cand=%d %+v",
			seg, cand, got.Hits, *want.Segment, *want.Candidates, want.Hits)
	}
	if len(frame) >= len(jbody) {
		t.Errorf("binary request (%d bytes) not smaller than JSON (%d bytes)", len(frame), len(jbody))
	}
	snapJSON, snapBin := srv.codec.json.Load(), srv.codec.binary.Load()
	if snapJSON != 1 || snapBin != 1 {
		t.Fatalf("codec counters json=%d binary=%d, want 1/1", snapJSON, snapBin)
	}
}

// TestRPCSearchBinaryErrors mirrors the JSON guards on the binary
// path: oversized bodies 413 before decode, malformed frames 400, and
// both answer with the JSON error envelope.
func TestRPCSearchBinaryErrors(t *testing.T) {
	ts, _, _ := newRPCServer(t, 2)
	post := func(body []byte) *http.Response {
		resp, err := http.Post(ts.URL+SearchPath, ContentTypeBinary, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	big := make([]byte, MaxSearchBody+16)
	copy(big, binMagic[:])
	wantRPCEnvelope(t, post(big), http.StatusRequestEntityTooLarge, tier.CodeTooLarge)
	wantRPCEnvelope(t, post([]byte("not a frame")), http.StatusBadRequest, tier.CodeInvalid)
	req := validSearchRequest()
	frame := appendSearchRequest(nil, &req)
	wantRPCEnvelope(t, post(frame[:len(frame)-2]), http.StatusBadRequest, tier.CodeInvalid)
}

// TestCodecNegotiationFallback pins the mixed-version story: against a
// backend that rejects the binary media type, the client demotes that
// backend to JSON, retries the same query transparently, and never
// sends binary again — one fallback, zero failed queries.
func TestCodecNegotiationFallback(t *testing.T) {
	_, sh := buildCorpus(t, 3, 60, 2)
	srv, err := NewSegmentServer(ServerConfig{Sharded: sh})
	if err != nil {
		t.Fatal(err)
	}
	// A "legacy" front that refuses the binary codec the way a
	// pre-codec server would reject a frame: 400 on a body that is not
	// JSON (415 is exercised as the other demotion trigger).
	rejects := 0
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == SearchPath && r.Header.Get("Content-Type") != "application/json" {
			rejects++
			status, code := http.StatusBadRequest, tier.CodeInvalid
			if rejects%2 == 0 {
				status, code = http.StatusUnsupportedMediaType, tier.CodeInvalid
			}
			tier.WriteError(w, status, code, "cannot parse body")
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer legacy.Close()

	c := connectCluster(t, []string{legacy.URL})
	b := c.backendsNow()[0]
	req := validSearchRequest()
	resp, err := b.search(context.Background(), req)
	if err != nil {
		t.Fatalf("search through legacy backend: %v", err)
	}
	if *resp.Segment != 0 || len(resp.Hits) == 0 {
		t.Fatalf("fallback search returned %+v", resp)
	}
	if rejects != 1 {
		t.Fatalf("legacy backend saw %d binary bodies, want exactly 1", rejects)
	}
	if b.useBinary.Load() {
		t.Error("backend not demoted to JSON after rejection")
	}
	if b.codecFallbacks.Load() != 1 || b.binSearches.Load() != 1 || b.jsonSearches.Load() != 1 {
		t.Errorf("counters fallbacks=%d bin=%d json=%d, want 1/1/1",
			b.codecFallbacks.Load(), b.binSearches.Load(), b.jsonSearches.Load())
	}
	// Subsequent queries go straight to JSON.
	if _, err := b.search(context.Background(), req); err != nil {
		t.Fatalf("post-demotion search: %v", err)
	}
	if rejects != 1 {
		t.Fatalf("demoted backend sent binary again (%d rejections)", rejects)
	}
}

// TestDistributedCodecParity: rankings through the binary codec are
// bit-identical to the same cluster forced onto JSON — the codec can
// change bytes on the wire, never a score or an order.
func TestDistributedCodecParity(t *testing.T) {
	_, sh := buildCorpus(t, 11, 90, 3)
	addrs := startTopology(t, sh, 2)
	binC := connectCluster(t, addrs)
	jsonC := connectCluster(t, addrs, WithJSONCodec())
	binEng := binC.NewEngine(nil, 2)
	jsonEng := jsonC.NewEngine(nil, 2)
	for _, qt := range queriesFor(5, 8) {
		for _, k := range []int{3, 10, 1000} {
			opts := search.Options{K: k, Scorer: search.BM25{}}
			bres, berr := binEng.Search(binEng.ParseText(qt), opts)
			jres, jerr := jsonEng.Search(jsonEng.ParseText(qt), opts)
			if berr != nil || jerr != nil {
				t.Fatalf("q=%q k=%d: errors %v / %v", qt, k, berr, jerr)
			}
			if !reflect.DeepEqual(bres, jres) {
				t.Fatalf("q=%q k=%d: binary and JSON rankings diverged", qt, k)
			}
		}
	}
	for _, b := range binC.backendsNow() {
		if b.binSearches.Load() == 0 || b.jsonSearches.Load() != 0 {
			t.Errorf("backend %s: bin=%d json=%d, want all-binary", b.addr, b.binSearches.Load(), b.jsonSearches.Load())
		}
	}
	for _, b := range jsonC.backendsNow() {
		if b.binSearches.Load() != 0 {
			t.Errorf("backend %s sent binary despite WithJSONCodec", b.addr)
		}
	}
}

// TestSegmentPrometheusCodecFamilies: the scrape surface the CI smoke
// test asserts against — codec split and kernel block-max counters.
func TestSegmentPrometheusCodecFamilies(t *testing.T) {
	ts, _, _ := newRPCServer(t, 2)
	req := validSearchRequest()
	frame := appendSearchRequest(nil, &req)
	resp, err := http.Post(ts.URL+SearchPath, ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	scrape, err := http.Get(ts.URL + MetricsAliasPath)
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(scrape.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`ivr_rpc_codec_requests_total{codec="binary"} 1`,
		`ivr_rpc_codec_requests_total{codec="json"}`,
		"# TYPE ivr_kernel_blocks_skipped_total counter",
		"ivr_kernel_segment_scans_total",
		"ivr_kernel_postings_skipped_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// --- per-hop codec micro-benchmarks (JSON vs binary) ---

func benchRequest() SearchRequest {
	req := SearchRequest{
		Segment: 2,
		Field:   "text",
		Scorer:  ScorerSpec{Name: "bm25"},
		K:       10,
	}
	for i := 0; i < 4; i++ {
		req.Terms = append(req.Terms, WireTerm{Term: "anthem", Weight: 1})
		req.Stats = append(req.Stats, WireTermStats{
			N: 12000, AvgDocLen: 7.42, TotalLen: 89000, DF: 340, CF: 612, Weight: 1,
		})
	}
	return req
}

func benchHits(n int) []WireHit {
	hits := make([]WireHit, n)
	for i := range hits {
		hits[i] = WireHit{Doc: uint32(i * 7), ID: "s01234", Score: 7.61472983 / float64(i+1)}
	}
	return hits
}

func BenchmarkSearchRequestBinary(b *testing.B) {
	req := benchRequest()
	var dec SearchRequest
	buf := appendSearchRequest(nil, &req)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendSearchRequest(buf[:0], &req)
		if err := decodeSearchRequest(buf, &dec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchRequestJSON(b *testing.B) {
	req := benchRequest()
	var dec SearchRequest
	ref, _ := json.Marshal(&req)
	b.SetBytes(int64(len(ref)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := json.Marshal(&req)
		if err != nil {
			b.Fatal(err)
		}
		if err := json.Unmarshal(buf, &dec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchResponseBinary(b *testing.B) {
	hits := benchHits(10)
	var seg, cand int
	out := SearchResponse{Segment: &seg, Candidates: &cand}
	buf := appendSearchResponse(nil, 2, hits, 4321)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendSearchResponse(buf[:0], 2, hits, 4321)
		if err := decodeSearchResponse(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchResponseJSON(b *testing.B) {
	hits := benchHits(10)
	seg, cand := 2, 4321
	resp := SearchResponse{Segment: &seg, Candidates: &cand, Hits: hits}
	var out SearchResponse
	ref, _ := json.Marshal(&resp)
	b.SetBytes(int64(len(ref)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := json.Marshal(&resp)
		if err != nil {
			b.Fatal(err)
		}
		out.Hits = out.Hits[:0]
		if err := json.Unmarshal(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

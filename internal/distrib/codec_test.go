package distrib

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

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
	frame := AppendSearchRequest(nil, &want)
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
	var out SearchResponse
	if err := decodeSearchResponse(rframe, &out); err != nil {
		t.Fatal(err)
	}
	if out.Segment != 5 || out.Candidates != 123 || !reflect.DeepEqual(out.Hits, hits) {
		t.Fatalf("response round trip: %+v", out)
	}
	for i := range hits {
		if math.Float64bits(out.Hits[i].Score) != math.Float64bits(hits[i].Score) {
			t.Fatalf("hit %d score bits changed across the wire", i)
		}
	}

	// Empty hit lists are a normal result, not an error.
	empty := appendSearchResponse(nil, 0, nil, 0)
	out = SearchResponse{Segment: 9, Candidates: 9, Hits: []WireHit{{ID: "stale"}}}
	if err := decodeSearchResponse(empty, &out); err != nil {
		t.Fatal(err)
	}
	if out.Segment != 0 || out.Candidates != 0 || len(out.Hits) != 0 {
		t.Fatalf("empty response decoded as %+v", out)
	}
}

// TestBinaryCodecMalformed drives the decoder's structural checks:
// every case must error, never panic, never silently accept.
func TestBinaryCodecMalformed(t *testing.T) {
	good := AppendSearchRequest(nil, &SearchRequest{
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
				err = decodeSearchResponse(tc.buf, &SearchResponse{})
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
	reqFrame := AppendSearchRequest(nil, &req)
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
				_ = decodeSearchResponse(b, &SearchResponse{})
			}()
		}
	}
}

// TestRPCSearchBinaryEndpoint checks the IVRB framing of answers from
// every hosted segment: the media type, an exact Content-Length, the
// segment echo, candidates covering the hits, a canonical encoding (the
// decoded response re-encodes to the same bytes), and byte-identical
// answers to a repeated request, so pooled buffers carry nothing over.
func TestRPCSearchBinaryEndpoint(t *testing.T) {
	const segments = 3
	ts, _, _ := newRPCServer(t, segments)
	post := func(frame []byte) []byte {
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
		return buf.Bytes()
	}
	for seg := 0; seg < segments; seg++ {
		req := validSearchRequest()
		req.Segment = seg
		frame := AppendSearchRequest(nil, &req)
		body := post(frame)
		var got SearchResponse
		if err := decodeSearchResponse(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Segment != seg {
			t.Fatalf("segment %d answered with echo %d", seg, got.Segment)
		}
		if len(got.Hits) == 0 || got.Candidates < len(got.Hits) {
			t.Fatalf("segment %d: %d hits from %d candidates", seg, len(got.Hits), got.Candidates)
		}
		if re := appendSearchResponse(nil, got.Segment, got.Hits, got.Candidates); !bytes.Equal(re, body) {
			t.Fatalf("segment %d: response frame is not the canonical encoding of its contents", seg)
		}
		if again := post(frame); !bytes.Equal(again, body) {
			t.Fatalf("segment %d: repeated request answered with different bytes", seg)
		}
	}
}

// TestRPCSearchBinaryErrors: oversized bodies 413 before decode,
// malformed frames 400, and both answer with the JSON error envelope.
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
	frame := AppendSearchRequest(nil, &req)
	wantRPCEnvelope(t, post(frame[:len(frame)-2]), http.StatusBadRequest, tier.CodeInvalid)
}

// TestSegmentPrometheusCodecFamilies: after one IVRB search, the scrape
// surface the CI smoke test asserts against — the kernel's work
// counters — is present.
func TestSegmentPrometheusCodecFamilies(t *testing.T) {
	ts, _, _ := newRPCServer(t, 2)
	req := validSearchRequest()
	frame := AppendSearchRequest(nil, &req)
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
		"# TYPE ivr_kernel_segment_scans_total counter",
		"# TYPE ivr_kernel_blocks_scored_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// --- per-hop codec micro-benchmarks ---

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
	buf := AppendSearchRequest(nil, &req)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendSearchRequest(buf[:0], &req)
		if err := decodeSearchRequest(buf, &dec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchResponseBinary(b *testing.B) {
	hits := benchHits(10)
	var out SearchResponse
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

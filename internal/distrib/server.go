package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/search"
	"repro/internal/tier"
	"repro/internal/trace"
)

// ServerConfig wires a SegmentServer.
type ServerConfig struct {
	// Sharded is the full sharded build of the collection. Every
	// server of one topology builds the same sharded index (the build
	// is deterministic in the document stream), then serves only the
	// segments assigned to it — the index layout, not the process
	// layout, fixes global doc IDs.
	Sharded *index.Sharded
	// Hosted lists the segment ordinals this server scores; empty
	// hosts every segment.
	Hosted []int
	// SourceHash fingerprints the collection the index was built from
	// (CollectionSourceHash); the merge tier compares it against its
	// own collection so scores and served metadata cannot come from
	// different archives. Zero skips the check (bare-index wiring).
	SourceHash uint64
	// Logger receives request logs (nil discards).
	Logger *slog.Logger
	// SlowQuery logs any traced request at least this slow as a
	// structured slow-query line with its full span tree (0 disables).
	SlowQuery time.Duration
	// TraceRing bounds the ring of recently finished traces served at
	// TracesPath (0 = the trace package default).
	TraceRing int
	// Admission sizes the segment tier's concurrency gate. The zero
	// value yields an effectively transparent gate (limit 4096) whose
	// ivr_admission_* families are still scrapeable; set InitialLimit
	// (and Target for AIMD adaptation) to actually bound concurrency.
	Admission overload.AdmissionConfig
	// Clock drives X-IVR-Deadline budget expiry (nil = real time;
	// chaostest injects a manual clock for deterministic expiry).
	Clock overload.Clock
}

// SegmentServer hosts index segments behind the /rpc/v1 surface. It is
// immutable after construction and safe for concurrent use.
type SegmentServer struct {
	sh         *index.Sharded
	hosted     map[int]*index.Index
	ordinals   []int
	sourceHash uint64
	statsBody  []byte // precomputed: the index is immutable
	metrics    *metrics.Registry
	tracer     *trace.Collector
	handler    http.Handler
	// gate runs the overload protocol on search RPCs: X-IVR-Deadline
	// budgets, admission control, and the deadline_exceeded ledger.
	gate *overload.Gate
}

// NewSegmentServer validates the hosted set and precomputes the stats
// payload (the index is immutable, so /rpc/v1/stats is a static body).
func NewSegmentServer(cfg ServerConfig) (*SegmentServer, error) {
	if cfg.Sharded == nil {
		return nil, fmt.Errorf("distrib: nil sharded index")
	}
	n := cfg.Sharded.NumSegments()
	ords := cfg.Hosted
	if len(ords) == 0 {
		ords = make([]int, n)
		for i := range ords {
			ords[i] = i
		}
	}
	s := &SegmentServer{
		sh:         cfg.Sharded,
		hosted:     make(map[int]*index.Index, len(ords)),
		sourceHash: cfg.SourceHash,
		metrics:    metrics.NewRegistry(),
		gate:       overload.NewGate(trace.TierSegment, &cfg.Admission, cfg.Clock),
	}
	for _, ord := range ords {
		if ord < 0 || ord >= n {
			return nil, fmt.Errorf("distrib: hosted segment %d outside topology of %d segments", ord, n)
		}
		if _, dup := s.hosted[ord]; dup {
			return nil, fmt.Errorf("distrib: segment %d hosted twice", ord)
		}
		s.hosted[ord] = cfg.Sharded.Segment(ord)
		s.ordinals = append(s.ordinals, ord)
	}
	sort.Ints(s.ordinals)
	body, err := json.Marshal(s.buildStats())
	if err != nil {
		return nil, fmt.Errorf("distrib: encode stats: %w", err)
	}
	s.statsBody = body
	s.tracer = trace.NewCollector(trace.CollectorConfig{
		Tier:          trace.TierSegment,
		RingSize:      cfg.TraceRing,
		SlowThreshold: cfg.SlowQuery,
	})
	s.handler = trace.HTTPMiddleware(trace.HTTPConfig{
		Tier:      trace.TierSegment,
		Collector: s.tracer,
		// Only scoring work is worth a trace; probes and scrapes would
		// drown the ring.
		Skip:   func(path string) bool { return path != SearchPath },
		Logger: cfg.Logger,
	})(s.routes())
	return s, nil
}

// Metrics exposes the server's telemetry registry (ops and tests).
func (s *SegmentServer) Metrics() *metrics.Registry { return s.metrics }

// Gate exposes the server's overload gate (ops and tests).
func (s *SegmentServer) Gate() *overload.Gate { return s.gate }

// Hosted returns the hosted segment ordinals, ascending.
func (s *SegmentServer) Hosted() []int {
	out := make([]int, len(s.ordinals))
	copy(out, s.ordinals)
	return out
}

// Handler returns the instrumented /rpc/v1 route table.
func (s *SegmentServer) Handler() http.Handler { return s.handler }

// Telemetry labels for the catch-all handlers, following the webapi
// convention ("<method> <pattern>", "*" = any method): every request
// that misses the route table lands on one of two fixed labels, so
// per-route metrics cannot explode on arbitrary request paths.
const (
	routeRPCUnmatched = "* /rpc/"
	routeUnmatched    = "* /"
)

// routes builds the RPC route table. Every handler — including both
// catch-alls — is registered through the shared metrics.Instrument
// wrapper under a fixed pattern label.
func (s *SegmentServer) routes() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.metrics.Instrument(pattern, h))
	}
	handle("GET "+StatsPath, s.handleStats)
	handle("POST "+SearchPath, s.handleSearch)
	handle("GET "+HealthPath, s.handleHealthz)
	handle("GET "+MetricsPath, s.handleMetrics)
	handle("GET "+MetricsAliasPath, s.handlePrometheus)
	handle("GET "+TracesPath, s.tracer.ServeHTTP)
	notFound := func(w http.ResponseWriter, r *http.Request) {
		tier.WriteError(w, http.StatusNotFound, tier.CodeNotFound, "no route %s %s", r.Method, r.URL.Path)
	}
	mux.HandleFunc("/rpc/", s.metrics.Instrument(routeRPCUnmatched, notFound))
	mux.HandleFunc("/", s.metrics.Instrument(routeUnmatched, notFound))
	return mux
}

// buildStats assembles the full statistics export of every hosted
// segment.
func (s *SegmentServer) buildStats() StatsResponse {
	resp := StatsResponse{
		Segments:       s.sh.NumSegments(),
		CollectionHash: CollectionHash(s.sh),
		SourceHash:     s.sourceHash,
	}
	for _, ord := range s.ordinals {
		seg := s.hosted[ord]
		st := SegmentStats{
			Segment: ord,
			NumDocs: seg.NumDocs(),
			ExtIDs:  make([]string, seg.NumDocs()),
			Fields:  make(map[string]FieldStats, len(statsFields)),
		}
		for d := 0; d < seg.NumDocs(); d++ {
			st.ExtIDs[d] = seg.ExternalID(index.DocID(d))
		}
		for _, f := range statsFields {
			fs := FieldStats{
				TotalLen: seg.TotalFieldLen(f),
				Terms:    make(map[string]TermCounts, seg.NumTerms(f)),
			}
			seg.EachTerm(f, func(term string, df int, cf int64) bool {
				fs.Terms[term] = TermCounts{DF: df, CF: cf}
				return true
			})
			st.Fields[f.String()] = fs
		}
		resp.Hosted = append(resp.Hosted, st)
	}
	return resp
}

func (s *SegmentServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.statsBody)
}

func (s *SegmentServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// The hashes let a prober (or an operator with curl) confirm not
	// just liveness but that this replica serves the expected build —
	// the same identity the merge tier validates on connect and reload.
	tier.WriteJSON(w, http.StatusOK, struct {
		Status         string `json:"status"`
		Segments       int    `json:"segments"`
		Hosted         []int  `json:"hosted"`
		CollectionHash uint64 `json:"collection_hash"`
		SourceHash     uint64 `json:"source_hash,omitempty"`
	}{"ok", s.sh.NumSegments(), s.Hosted(), CollectionHash(s.sh), s.sourceHash})
}

func (s *SegmentServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		s.handlePrometheus(w, r)
		return
	}
	tier.WriteJSON(w, http.StatusOK, struct {
		metrics.Snapshot
		// Kernel is process-wide: every hosted segment scores through
		// the same pooled kernel.
		Kernel           search.KernelStats      `json:"kernel"`
		Admission        overload.AdmissionStats `json:"admission"`
		DeadlineExceeded int64                   `json:"deadline_exceeded"`
	}{
		Snapshot:         s.metrics.TakeSnapshot(),
		Kernel:           search.ReadKernelStats(),
		Admission:        s.gate.Admission().Stats(),
		DeadlineExceeded: s.gate.DeadlineExceeded(),
	})
}

func (s *SegmentServer) handlePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	if err := s.metrics.WritePrometheus(w, trace.TierSegment); err != nil {
		return
	}
	// Segment-tier extras on the same scrape: the scoring kernel's
	// block-max telemetry.
	p := metrics.NewPromWriter(w)
	ks := search.ReadKernelStats()
	kernel := []struct {
		name string
		v    int64
	}{
		{"ivr_kernel_segment_scans_total", ks.SegmentScans},
		{"ivr_kernel_pruned_scans_total", ks.PrunedScans},
		{"ivr_kernel_blocks_scored_total", ks.BlocksScored},
		{"ivr_kernel_blocks_skipped_total", ks.BlocksSkipped},
		{"ivr_kernel_blocks_rescored_total", ks.BlocksRescored},
		{"ivr_kernel_postings_skipped_total", ks.PostingsSkipped},
		{"ivr_kernel_terms_skipped_total", ks.TermsSkipped},
	}
	for _, k := range kernel {
		p.Family(k.name, "counter")
		p.Sample(k.name, float64(k.v))
	}
	s.gate.WritePrometheus(p)
}

// searchReqPool recycles decoded search requests (and through them the
// Terms/Stats slice capacity) across queries.
var searchReqPool = sync.Pool{New: func() any { return new(SearchRequest) }}

// handleSearch scores one hosted segment with the request's global
// statistics through the same search.ScoreIndexSegment kernel the
// in-process fan-out runs. Request and response bodies are IVRB frames
// (codec.go).
func (s *SegmentServer) handleSearch(w http.ResponseWriter, r *http.Request) {
	// The body must be an IVRB frame: any other media type is refused
	// typed before the gate claims a slot or a byte of body is read.
	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt != ContentTypeBinary {
		tier.WriteError(w, http.StatusUnsupportedMediaType, tier.CodeInvalid,
			"content type %q, want %s", r.Header.Get("Content-Type"), ContentTypeBinary)
		return
	}
	// Deadline and admission next: a request whose budget is spent (or
	// garbled), or that arrives over the concurrency limit, is answered
	// typed before any byte of body is read.
	ctx, release, ok := s.gate.Enter(w, r, 0)
	if !ok {
		return
	}
	defer release()
	r.Body = http.MaxBytesReader(w, r.Body, MaxSearchBody)
	req := searchReqPool.Get().(*SearchRequest)
	defer searchReqPool.Put(req)
	_, dec := trace.StartSpan(r.Context(), "decode")
	bodyBuf := getBuf()
	body, err := appendAll((*bodyBuf)[:0], r.Body)
	*bodyBuf = body[:0]
	defer putBuf(bodyBuf)
	if err == nil {
		err = decodeSearchRequest(body, req)
	}
	dec.End()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			tier.WriteError(w, http.StatusRequestEntityTooLarge, tier.CodeTooLarge,
				"request body exceeds %d bytes", MaxSearchBody)
			return
		}
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "invalid binary frame: %v", err)
		return
	}
	seg, ok := s.hosted[req.Segment]
	if !ok {
		tier.WriteError(w, http.StatusNotFound, tier.CodeNotFound,
			"segment %d not hosted here (hosted: %v)", req.Segment, s.ordinals)
		return
	}
	field, err := fieldByName(req.Field)
	if err != nil {
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "%v", err)
		return
	}
	if len(req.Terms) == 0 {
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "empty term list")
		return
	}
	if len(req.Stats) != len(req.Terms) {
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid,
			"%d stats for %d terms", len(req.Stats), len(req.Terms))
		return
	}
	scorer, err := req.Scorer.Scorer()
	if err != nil {
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "%v", err)
		return
	}
	q := search.Query{Field: field, Terms: make([]search.WeightedTerm, len(req.Terms))}
	stats := make([]search.TermStats, len(req.Terms))
	for i, t := range req.Terms {
		if t.Weight < 0 {
			tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid,
				"negative weight %v for term %q", t.Weight, t.Term)
			return
		}
		q.Terms[i] = search.WeightedTerm{Term: t.Term, Weight: t.Weight}
		ws := req.Stats[i]
		stats[i] = search.TermStats{
			N: ws.N, AvgDocLen: ws.AvgDocLen, TotalLen: ws.TotalLen,
			DF: ws.DF, CF: ws.CF, Weight: ws.Weight,
		}
	}
	ordinal := req.Segment
	// Compile from the wire statistics and run the same dense kernel
	// as the in-process fan-out: identical inputs, identical compiled
	// constants, bit-identical scores.
	_, sc := trace.StartSpan(r.Context(), "score")
	p := search.PrepareQuery(q, stats, scorer)
	res, scoreErr := p.ScoreSegmentContext(ctx, seg, func(d index.DocID) index.DocID {
		return s.sh.GlobalID(ordinal, d)
	}, nil, req.K)
	if sc != nil {
		sc.SetAttr("segment", strconv.Itoa(ordinal))
		sc.SetAttr("candidates", strconv.Itoa(res.Candidates))
		sc.End()
	}
	if scoreErr != nil {
		// The kernel aborted at a block boundary: the budget ran out
		// mid-scan. Partial accumulator state is discarded, never served.
		s.gate.Exceeded(w, "deadline budget spent during scoring")
		return
	}
	hits := getWireHits()
	for _, h := range res.Hits {
		hits = append(hits, WireHit{Doc: uint32(h.Doc), ID: h.ID, Score: h.Score})
	}
	search.RecycleHits(res.Hits)
	// Encode into a pooled buffer and stream it with an exact
	// Content-Length — one write, no chunked framing, no intermediate
	// copy.
	respBuf := getBuf()
	defer putBuf(respBuf)
	_, enc := trace.StartSpan(r.Context(), "encode")
	*respBuf = appendSearchResponse((*respBuf)[:0], ordinal, hits, res.Candidates)
	enc.SetAttr("bytes", strconv.Itoa(len(*respBuf)))
	enc.End()
	recycleWireHits(hits)
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Header().Set("Content-Length", strconv.Itoa(len(*respBuf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*respBuf)
}

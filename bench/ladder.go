package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/feedback"
	"repro/internal/ilog"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/router"
	"repro/internal/search"
	"repro/internal/sessionstore"
	"repro/internal/webapi"
)

// The ladder: the first ladderSearches searches of a workload's script
// replayed in this process, one goroutine driving, one rung per layer
// boundary, timing only calls into public functions. Every rung runs
// the same inputs, so a layer's self time is its rung minus the rung
// below, and the lines telescope to the top rung exactly; what the
// real processes add on top of the top rung is reported as
// unattributed_us, never hidden.
//
// Each rung is measured over ladderBatches timed batches (median of the
// per-batch means) after one batch that counts allocations instead of
// time. Cache-backed rungs get a fresh result cache per batch, warmed
// with the plain topic queries, so every batch sees the regime of the
// live run (plain query = hit, search after new evidence = miss)
// rather than the all-hits regime a replay would otherwise fall into.
const (
	ladderSearches = 200
	ladderBatches  = 10
	// serveCacheSize and serveSegments mirror ivrserve's -search-cache
	// default and the -segments 2 the workloads pass.
	serveCacheSize = 4096
	serveSegments  = 2
)

// searchInput is one scripted search, decomposed for the rungs below
// core.Session.
type searchInput struct {
	query    string
	parsed   search.Query
	mass     map[string]float64
	expanded search.Query
	beta     float64
	results  search.Results
	// miss: the search follows new evidence, so the live system
	// computes it; otherwise the result cache serves it.
	miss bool
}

// meter accumulates one batch of one rung.
type meter struct {
	allocMode      bool
	ns             int64
	mallocs, bytes uint64
	calls          int
}

func (m *meter) do(f func()) {
	if m.allocMode {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		m.mallocs += b.Mallocs - a.Mallocs
		m.bytes += b.TotalAlloc - a.TotalAlloc
	} else {
		t := time.Now()
		f()
		m.ns += time.Since(t).Nanoseconds()
	}
	m.calls++
}

// searchOnly times the search calls of a replay and runs the rest bare.
func (m *meter) searchOnly(kind opKind, call func()) {
	if kind == opSearch {
		m.do(call)
	} else {
		call()
	}
}

// rung is one measured boundary. NS, Allocs and Bytes are per scripted
// search (totals over the batch divided by the number of searches in
// the script prefix, so miss-only rungs weigh in at their share);
// CallNS is per timed call.
type rung struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls_per_batch"`
	NS     float64 `json:"ns_per_search"`
	CallNS float64 `json:"ns_per_call"`
	Allocs float64 `json:"allocs_per_search"`
	Bytes  float64 `json:"bytes_per_search"`
}

// measure runs body once counting allocations and ladderBatches times
// counting time, and appends the rung. per is the divisor that turns
// batch totals into per-search figures; 0 means per timed call (the
// write-path rungs, which explain events latency, not search latency).
func (lr *ladderResult) measure(name string, per int, body func(m *meter) error) error {
	r := rung{Name: name}
	am := &meter{allocMode: true}
	if err := body(am); err != nil {
		return fmt.Errorf("ladder rung %s: %w", name, err)
	}
	if per == 0 {
		per = max(am.calls, 1)
	}
	r.Calls = am.calls
	r.Allocs = float64(am.mallocs) / float64(per)
	r.Bytes = float64(am.bytes) / float64(per)
	var perSearch, perCall []float64
	for b := 0; b < ladderBatches; b++ {
		m := &meter{}
		if err := body(m); err != nil {
			return fmt.Errorf("ladder rung %s: %w", name, err)
		}
		perSearch = append(perSearch, float64(m.ns)/float64(per))
		if m.calls > 0 {
			perCall = append(perCall, float64(m.ns)/float64(m.calls))
		}
	}
	r.NS = median(perSearch)
	r.CallNS = median(perCall)
	lr.Rungs = append(lr.Rungs, r)
	return nil
}

// ladderResult is the printed table plus the write-path figures.
type ladderResult struct {
	Searches int     `json:"searches"`
	Misses   int     `json:"misses"`
	Rungs    []rung  `json:"rungs"`
	Lines    []line  `json:"lines"`
	TopUS    float64 `json:"top_rung_us"`
	// SearchShare is (search + feedback + index self time) / client
	// rung: the workload-validity figure.
	SearchShare float64 `json:"search_share"`
	StateBytes  float64 `json:"state_bytes"`
	FrameBytes  float64 `json:"frame_bytes"`
}

// line is one layer's self time: its rung minus the rung(s) below.
type line struct {
	Layer  string  `json:"layer"`
	US     float64 `json:"self_us"`
	Allocs float64 `json:"self_allocs"`
	Bytes  float64 `json:"self_bytes"`
}

func (lr *ladderResult) rung(name string) rung {
	for _, r := range lr.Rungs {
		if r.Name == name {
			return r
		}
	}
	return rung{}
}

func (lr *ladderResult) lineUS(layer string) float64 {
	for _, l := range lr.Lines {
		if l.Layer == layer {
			return l.US
		}
	}
	return 0
}

// ladder is the shared in-process fixture.
type ladder struct {
	coll    *collection.Collection
	topics  []topic
	sh      *index.Sharded
	cfg     core.Config    // what a fresh System is built from
	eff     core.Config    // the same with core's defaults applied (expansion terms, scorer)
	opts    search.Options // what core.Session passes to the engine
	inputs  []searchInput
	plans   []sessionPlan
	tmpDir  string
	discard *slog.Logger
}

// runLadder measures every rung for one script. withTiers adds the
// router and distrib rungs (tiers.adapt only; elsewhere those layers
// are not on the path and their lines are zero).
func runLadder(ctx context.Context, c *corpus, oracle *core.System, sc *script, tmpDir string, withTiers bool) (*ladderResult, error) {
	cfg, err := systemConfig(serveSegments, serveCacheSize)
	if err != nil {
		return nil, err
	}
	sh, err := core.BuildShardedIndex(c.arch.Collection, nil, serveSegments)
	if err != nil {
		return nil, err
	}
	eff := oracle.Config()
	ld := &ladder{coll: c.arch.Collection, topics: c.topics, sh: sh, cfg: cfg, eff: eff,
		opts: search.Options{K: eff.K, Scorer: eff.Scorer}, tmpDir: tmpDir, discard: slog.New(slog.DiscardHandler)}
	if err := ld.buildInputs(ctx, oracle, sc); err != nil {
		return nil, err
	}
	n := len(ld.inputs)
	res := &ladderResult{Searches: n}
	for _, in := range ld.inputs {
		if in.miss {
			res.Misses++
		}
	}

	// --- rungs below core.Session, on the decomposed inputs ---
	seq := search.NewShardedEngine(sh, nil, 1)
	par := search.NewShardedEngine(sh, nil, 0)
	an := par.Analyzer()
	exp := newExpander(ld.coll, par)
	engineRung := func(eng *search.Engine) func(m *meter) error {
		return func(m *meter) (err error) {
			ld.timeInputs(m, true, func(in *searchInput) {
				if _, serr := eng.Search(in.expanded, ld.opts); serr != nil {
					err = serr
				}
			})
			return err
		}
	}
	cacheKey := func(in *searchInput) string {
		return retrieval.Key(retrieval.QueryKey(in.parsed), retrieval.EvidenceKey(in.mass), "ladder")
	}
	// stack replays the sessions through the SDK against handler h.
	stack := func(h http.Handler, m *meter) error {
		ts := httptest.NewServer(h)
		defer ts.Close()
		return ld.replaySDK(ctx, ts.URL, m)
	}
	for _, r := range []struct {
		name string
		body func(m *meter) error
	}{
		{"text.analyze", func(m *meter) error {
			ld.timeInputs(m, false, func(in *searchInput) { an.Analyze(in.query) })
			return nil
		}},
		{"search.kernel", func(m *meter) error {
			ld.timeInputs(m, true, func(in *searchInput) { ld.kernelScan(in.expanded) })
			return nil
		}},
		{"search.engine.sequential", engineRung(seq)},
		{"search.engine", engineRung(par)},
		{"feedback.expand", func(m *meter) error {
			ld.timeInputs(m, true, func(in *searchInput) { exp.Expand(in.parsed, in.mass, eff.ExpandTerms, in.beta) })
			return nil
		}},
		{"retrieval.cache", func(m *meter) error {
			cache := retrieval.NewCache(serveCacheSize)
			lookup := func(in *searchInput) {
				_, _, _ = cache.Do(cacheKey(in), func() (search.Results, error) { return in.results, nil })
			}
			for i := range ld.inputs {
				if in := &ld.inputs[i]; !in.miss {
					lookup(in)
				}
			}
			ld.timeInputs(m, false, lookup)
			return nil
		}},
		// --- core.Session and everything stacked on it ---
		{"core.session", func(m *meter) error {
			sys, err := ld.freshSystem(par)
			if err != nil {
				return err
			}
			return ld.replay(ctx, newCoreBackend(sys), m.searchOnly)
		}},
		{"webapi.handler", func(m *meter) error {
			srv, err := ld.freshServer(par)
			if err != nil {
				return err
			}
			defer srv.Close()
			return ld.replay(ctx, &handlerBackend{h: srv.Handler(), m: m}, nil)
		}},
		{"client.loopback", func(m *meter) error {
			srv, err := ld.freshServer(par)
			if err != nil {
				return err
			}
			defer srv.Close()
			return stack(srv.Handler(), m)
		}},
	} {
		if err := res.measure(r.name, n, r.body); err != nil {
			return nil, err
		}
	}
	if withTiers {
		if err := ld.tierRungs(ctx, par, res); err != nil {
			return nil, err
		}
	}
	if err := ld.writeRungs(ctx, par, res); err != nil {
		return nil, err
	}
	res.derive(withTiers)
	return res, nil
}

// newExpander wires a feedback.Expander the way core.NewSystem does.
func newExpander(coll *collection.Collection, eng *search.Engine) *feedback.Expander {
	return feedback.NewExpander(eng.Analyzer(),
		func(id string) (string, bool) {
			shot := coll.Shot(collection.ShotID(id))
			if shot == nil {
				return "", false
			}
			return shot.Transcript, true
		},
		func(term string) int { return eng.DocFreq(index.FieldText, term) },
		eng.NumDocs())
}

// timeInputs times f on every captured search, or only on those the
// live system would compute (cache misses).
func (ld *ladder) timeInputs(m *meter, missOnly bool, f func(in *searchInput)) {
	for i := range ld.inputs {
		in := &ld.inputs[i]
		if missOnly && !in.miss {
			continue
		}
		m.do(func() { f(in) })
	}
}

// kernelScan is what the engine does per query minus fan-out and
// merge: collection statistics, one compiled query, one sequential
// scan per segment.
func (ld *ladder) kernelScan(q search.Query) {
	opts := ld.opts
	sh := ld.sh
	n, avgdl, total := sh.NumDocs(), sh.AvgDocLen(q.Field), sh.TotalFieldLen(q.Field)
	stats := make([]search.TermStats, len(q.Terms))
	for i, t := range q.Terms {
		stats[i] = search.TermStats{N: n, AvgDocLen: avgdl, TotalLen: total,
			DF: sh.DocFreq(q.Field, t.Term), CF: sh.CollectionFreq(q.Field, t.Term), Weight: t.Weight}
	}
	p := search.PrepareQuery(q, stats, opts.Scorer)
	for seg := 0; seg < sh.NumSegments(); seg++ {
		seg := seg
		r := p.ScoreSegment(sh.Segment(seg), func(d index.DocID) index.DocID { return sh.GlobalID(seg, d) }, nil, opts.K)
		search.RecycleHits(r.Hits)
	}
}

// captureBackend is the oracle with a tap: before each search it
// records the session's evidence mass and the expansion core.Session
// is about to perform.
type captureBackend struct {
	*coreBackend
	exp    *feedback.Expander
	cfg    core.Config
	inputs *[]searchInput
	limit  int
}

func (b *captureBackend) search(ctx context.Context, id, query string, offset int) (page, error) {
	if len(*b.inputs) < b.limit {
		sess, err := b.session(id)
		if err != nil {
			return page{}, err
		}
		eng := b.sys.Engine()
		in := searchInput{query: query, parsed: eng.ParseText(query), mass: sess.Mass()}
		in.expanded, in.beta = in.parsed, b.cfg.ExpandBeta
		if len(in.mass) > 0 {
			in.miss = true
			// Confidence-scaled beta, as in core.Session.
			var totalPos float64
			for _, w := range in.mass {
				if w > 0 {
					totalPos += w
				}
			}
			if sat := b.cfg.ExpandMassSaturation; sat > 0 && totalPos < sat {
				in.beta *= totalPos / sat
			}
			in.expanded = b.exp.Expand(in.parsed, in.mass, b.cfg.ExpandTerms, in.beta)
		}
		res, err := eng.Search(in.expanded, search.Options{K: b.cfg.K, Scorer: b.cfg.Scorer})
		if err != nil {
			return page{}, err
		}
		in.results = res
		*b.inputs = append(*b.inputs, in)
	}
	return b.coreBackend.search(ctx, id, query, offset)
}

// buildInputs replays sessions on the oracle until ladderSearches
// searches have been captured.
func (ld *ladder) buildInputs(ctx context.Context, oracle *core.System, sc *script) error {
	cb := &captureBackend{coreBackend: newCoreBackend(oracle), exp: newExpander(ld.coll, oracle.Engine()),
		cfg: oracle.Config(), inputs: &ld.inputs, limit: ladderSearches}
	per := sc.searchesPerSession()
	sessions := (ladderSearches + per - 1) / per
	for ord := 0; ord < sessions; ord++ {
		plan := sc.plan(uint64(ord))
		rec := runSession(ctx, cb, plan, ld.topics[plan.Topic], nil, nil)
		if rec.OpsFailed > 0 {
			return fmt.Errorf("ladder: oracle failed %d calls of session %d", rec.OpsFailed, ord)
		}
		ld.plans = append(ld.plans, plan)
	}
	// Whole sessions are replayed, so the last one may run a little past
	// the cut; the rungs above core time every search they execute, the
	// rungs below time exactly these inputs. Trim to whole sessions so
	// both see the same set.
	ld.inputs = ld.inputs[:min(len(ld.inputs), sessions*per)]
	if len(ld.inputs) == 0 {
		return fmt.Errorf("ladder: script has no searches")
	}
	return nil
}

// freshSystem builds a core.System with an empty result cache over eng
// and warms it with the plain topic queries.
func (ld *ladder) freshSystem(eng *search.Engine) (*core.System, error) {
	sys, err := core.NewSystem(eng, ld.coll, ld.cfg)
	if err != nil {
		return nil, err
	}
	warm := sys.NewSession("warm", nil)
	for _, tp := range ld.topics {
		if _, err := warm.Query(tp.Query); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

func (ld *ladder) freshServer(eng *search.Engine, opts ...webapi.Option) (*webapi.Server, error) {
	sys, err := ld.freshSystem(eng)
	if err != nil {
		return nil, err
	}
	opts = append([]webapi.Option{webapi.WithLogger(ld.discard), webapi.WithSessionTTL(30 * time.Minute)}, opts...)
	return webapi.NewServer(sys, opts...)
}

// replay runs the captured sessions against b.
func (ld *ladder) replay(ctx context.Context, b backend, wrap timed) error {
	for _, plan := range ld.plans {
		rec := runSession(ctx, b, plan, ld.topics[plan.Topic], nil, wrap)
		if rec.OpsFailed > 0 {
			return fmt.Errorf("%d of %d calls failed in session %d", rec.OpsFailed, rec.OpsAttempted, plan.Ordinal)
		}
	}
	return nil
}

func (ld *ladder) replaySDK(ctx context.Context, baseURL string, m *meter) error {
	b, err := newSDKBackend(baseURL)
	if err != nil {
		return err
	}
	defer b.close()
	return ld.replay(ctx, b, m.searchOnly)
}

// handlerBackend calls the webapi handler on a ResponseRecorder: the
// whole middleware chain and JSON encode, no sockets, no SDK. Only
// ServeHTTP of a search is timed; building the request and decoding
// the answer belong to the rung above.
type handlerBackend struct {
	h http.Handler
	m *meter
}

func (b *handlerBackend) call(method, path string, body any, out any, timed bool) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	if timed {
		b.m.do(func() { b.h.ServeHTTP(rec, req) })
	} else {
		b.h.ServeHTTP(rec, req)
	}
	if rec.Code < 200 || rec.Code > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	if out != nil {
		return json.Unmarshal(rec.Body.Bytes(), out)
	}
	return nil
}

func (b *handlerBackend) create(context.Context) (string, error) {
	var resp struct {
		SessionID string `json:"session_id"`
	}
	err := b.call(http.MethodPost, "/api/v1/sessions", map[string]string{"user_id": "bench"}, &resp, false)
	return resp.SessionID, err
}

func (b *handlerBackend) search(_ context.Context, id, query string, offset int) (page, error) {
	q := url.Values{"session": {id}, "q": {query}}
	if offset > 0 {
		q.Set("offset", strconv.Itoa(offset))
	}
	var sp struct {
		Step       int  `json:"step"`
		Candidates int  `json:"candidates"`
		Total      int  `json:"total"`
		Partial    bool `json:"partial"`
		Hits       []struct {
			ShotID string  `json:"shot_id"`
			Score  float64 `json:"score"`
		} `json:"hits"`
	}
	if err := b.call(http.MethodGet, "/api/v1/search?"+q.Encode(), nil, &sp, true); err != nil {
		return page{}, err
	}
	p := page{Step: sp.Step, Candidates: sp.Candidates, Total: sp.Total, Partial: sp.Partial,
		Hits: make([]pageHit, len(sp.Hits))}
	for i, h := range sp.Hits {
		p.Hits[i] = pageHit{ID: h.ShotID, Score: h.Score}
	}
	return p, nil
}

func (b *handlerBackend) events(_ context.Context, id string, events []ilog.Event) error {
	body := struct {
		SessionID string       `json:"session_id"`
		Events    []ilog.Event `json:"events"`
	}{id, events}
	return b.call(http.MethodPost, "/api/v1/events", body, nil, false)
}

func (b *handlerBackend) state(_ context.Context, id string) (sessionState, error) {
	var st struct {
		Step      int `json:"step"`
		Evidence  int `json:"evidence"`
		SeenShots int `json:"seen_shots"`
	}
	err := b.call(http.MethodGet, "/api/v1/sessions/"+url.PathEscape(id), nil, &st, false)
	return sessionState{Step: st.Step, Evidence: st.Evidence, Seen: st.SeenShots}, err
}

func (b *handlerBackend) delete(_ context.Context, id string) error {
	return b.call(http.MethodDelete, "/api/v1/sessions/"+url.PathEscape(id), nil, nil, false)
}

// rpcCounter is an http.RoundTripper that counts the merge tier's
// segment search RPCs, their request+response body bytes, and the
// slowest round trip since the last reset. The codec itself is
// unexported, so this is the narrowest public seam around it.
type rpcCounter struct {
	next  http.RoundTripper
	rpcs  atomic.Int64
	bytes atomic.Int64
	mu    sync.Mutex
	maxRT time.Duration
}

func (c *rpcCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != distrib.SearchPath {
		return c.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	// Read the frame here so the round trip covers the whole response
	// and its size is known even when the server streams it chunked.
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	rt := time.Since(start)
	c.rpcs.Add(1)
	c.bytes.Add(max(req.ContentLength, 0) + int64(len(body)))
	c.mu.Lock()
	if rt > c.maxRT {
		c.maxRT = rt
	}
	c.mu.Unlock()
	return resp, nil
}

func (c *rpcCounter) takeMax() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	rt := c.maxRT
	c.maxRT = 0
	return rt
}

// tierRungs measures what tiers.adapt stacks on the serve path: the
// router hop in front, and scatter/gather to two segment servers
// behind.
func (ld *ladder) tierRungs(ctx context.Context, local *search.Engine, res *ladderResult) error {
	n := len(ld.inputs)
	// serve replays the sessions through the SDK against a fresh webapi
	// server over eng, optionally with a router in front.
	serve := func(eng *search.Engine, routed bool, m *meter) error {
		srv, err := ld.freshServer(eng)
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if !routed {
			return ld.replaySDK(ctx, ts.URL, m)
		}
		rt, err := router.New(router.Config{Replicas: []string{ts.URL}})
		if err != nil {
			return err
		}
		defer rt.Close()
		front := httptest.NewServer(rt)
		defer front.Close()
		return ld.replaySDK(ctx, front.URL, m)
	}
	if err := res.measure("router.loopback", n, func(m *meter) error { return serve(local, true, m) }); err != nil {
		return err
	}

	// Two segment servers over the same sharded index, one segment each,
	// as the two ivrsegment processes host them.
	sourceHash := distrib.CollectionSourceHash(ld.coll)
	var addrs []string
	for host := 0; host < serveSegments; host++ {
		seg, err := distrib.NewSegmentServer(distrib.ServerConfig{Sharded: ld.sh, Hosted: []int{host}, SourceHash: sourceHash})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(seg.Handler())
		defer ts.Close()
		addrs = append(addrs, ts.URL)
	}
	counter := &rpcCounter{next: &http.Transport{MaxIdleConnsPerHost: 8}}
	cluster, err := distrib.Connect(ctx, addrs, distrib.WithHTTPClient(&http.Client{Transport: counter}))
	if err != nil {
		return err
	}
	defer cluster.Close()
	remote := cluster.NewEngine(nil, cluster.NumSegments())

	// The merge tier's engine alone: its time outside the slowest round
	// trip of each search is encode + decode + scatter bookkeeping. The
	// figure kept is the last timed batch's: ~150 searches, stable enough
	// for an informational line.
	var outsideNS int64
	if err := res.measure("distrib.engine", n, func(m *meter) (err error) {
		var slowest int64
		ld.timeInputs(m, true, func(in *searchInput) {
			counter.takeMax()
			if _, serr := remote.Search(in.expanded, ld.opts); serr != nil {
				err = serr
			}
			slowest += counter.takeMax().Nanoseconds()
		})
		outsideNS = m.ns - slowest
		return err
	}); err != nil {
		return err
	}
	res.Rungs = append(res.Rungs, rung{Name: "distrib.codec", NS: float64(outsideNS) / float64(n)})

	counter.rpcs.Store(0)
	counter.bytes.Store(0)
	if err := res.measure("distrib.loopback", n, func(m *meter) error { return serve(remote, false, m) }); err != nil {
		return err
	}
	if rpcs := counter.rpcs.Load(); rpcs > 0 {
		res.FrameBytes = float64(counter.bytes.Load()) / float64(rpcs)
	}
	return nil
}

// writeRungs measures the write path the session.write workload leans
// on: Session.Observe, the state codec, and the journal append. Each is
// timed in its own replay of the sessions, per call.
func (ld *ladder) writeRungs(ctx context.Context, eng *search.Engine, res *ladderResult) error {
	sys, err := ld.freshSystem(eng)
	if err != nil {
		return err
	}
	journal, err := sessionstore.OpenJournal(filepath.Join(ld.tmpDir, "ladder.jnl"))
	if err != nil {
		return err
	}
	defer journal.Close()
	var stateBytes, states int
	for _, step := range []string{"core.observe", "core.codec", "sessionstore.put"} {
		if err := res.measure(step, 0, func(m *meter) error {
			wb := &writeBackend{coreBackend: newCoreBackend(sys), journal: journal, timed: step, m: m,
				stateBytes: &stateBytes, states: &states}
			return ld.replay(ctx, wb, nil)
		}); err != nil {
			return err
		}
	}
	if states > 0 {
		res.StateBytes = float64(stateBytes) / float64(states)
	}
	return nil
}

// writeBackend is the core rung with the durable-session write path
// spelled out after every event batch, as core.SessionManager performs
// it with a store configured: observe, encode, append. The step named
// by timed goes through the meter, the others run bare.
type writeBackend struct {
	*coreBackend
	journal            *sessionstore.JournalStore
	timed              string
	m                  *meter
	stateBytes, states *int
}

func (b *writeBackend) step(name string, f func()) {
	if name == b.timed {
		b.m.do(f)
	} else {
		f()
	}
}

func (b *writeBackend) events(_ context.Context, id string, events []ilog.Event) error {
	sess, err := b.session(id)
	if err != nil {
		return err
	}
	for i := range events {
		b.step("core.observe", func() {
			if oerr := sess.Observe(events[i]); oerr != nil {
				err = oerr
			}
		})
	}
	if err != nil {
		return err
	}
	var state []byte
	b.step("core.codec", func() {
		state, err = sess.EncodeState()
		if err == nil {
			_, err = b.sys.RestoreSession(state)
		}
	})
	if err != nil {
		return err
	}
	*b.stateBytes += len(state)
	*b.states++
	b.step("sessionstore.put", func() { err = b.journal.Put(id, state) })
	return err
}

func (b *writeBackend) delete(ctx context.Context, id string) error {
	if err := b.journal.Delete(id); err != nil {
		return err
	}
	return b.coreBackend.delete(ctx, id)
}

// derive turns rungs into per-layer self-time lines. The lines
// telescope: their sum is the top rung.
func (lr *ladderResult) derive(withTiers bool) {
	us := func(name string) float64 { return lr.rung(name).NS / 1e3 }
	self := func(layer, upper string, lower ...string) {
		u := lr.rung(upper)
		l := line{Layer: layer, US: u.NS / 1e3, Allocs: u.Allocs, Bytes: u.Bytes}
		for _, name := range lower {
			r := lr.rung(name)
			l.US -= r.NS / 1e3
			l.Allocs -= r.Allocs
			l.Bytes -= r.Bytes
		}
		lr.Lines = append(lr.Lines, l)
	}
	self("text", "text.analyze")
	self("search.kernel", "search.kernel")
	self("search.engine", "search.engine.sequential", "search.kernel")
	self("search.fanout", "search.engine", "search.engine.sequential")
	self("feedback", "feedback.expand")
	self("retrieval", "retrieval.cache")
	self("core", "core.session", "text.analyze", "search.engine", "feedback.expand", "retrieval.cache")
	self("webapi", "webapi.handler", "core.session")
	self("client", "client.loopback", "webapi.handler")
	lr.TopUS = us("client.loopback")
	if withTiers {
		self("router", "router.loopback", "client.loopback")
		self("distrib", "distrib.loopback", "client.loopback")
		lr.TopUS += lr.lineUS("router") + lr.lineUS("distrib")
	}
	if c := us("client.loopback"); c > 0 {
		lr.SearchShare = (us("search.engine") + us("feedback.expand")) / c
	}
}

// print writes the ladder table.
func (lr *ladderResult) print(w io.Writer, liveMeanUS float64) {
	fmt.Fprintf(w, "\nladder: %d scripted searches (%d after new evidence), %d timed batches per rung\n",
		lr.Searches, lr.Misses, ladderBatches)
	fmt.Fprintf(w, "  %-26s %8s %12s %12s %12s %12s\n", "rung", "calls", "ns/call", "ns/search", "allocs/search", "bytes/search")
	for _, r := range lr.Rungs {
		fmt.Fprintf(w, "  %-26s %8d %12.0f %12.0f %12.1f %12.0f\n", r.Name, r.Calls, r.CallNS, r.NS, r.Allocs, r.Bytes)
	}
	fmt.Fprintf(w, "  %-26s %12s %12s %12s\n", "layer self time", "us/search", "allocs", "bytes")
	var sum float64
	for _, l := range lr.Lines {
		fmt.Fprintf(w, "  %-26s %12.2f %12.1f %12.0f\n", l.Layer, l.US, l.Allocs, l.Bytes)
		sum += l.US
	}
	fmt.Fprintf(w, "  %-26s %12.2f\n", "sum of lines (= top rung)", sum)
	fmt.Fprintf(w, "  %-26s %12.2f  (1 client, real processes, mean)\n", "client-observed search", liveMeanUS)
	fmt.Fprintf(w, "  %-26s %12.2f\n", "unattributed_us", liveMeanUS-sum)
	fmt.Fprintf(w, "  %-26s %12.3f  (search+feedback+index self time / client rung)\n", "search share", lr.SearchShare)
}

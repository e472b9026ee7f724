// Package router is the session-affine front tier: a thin HTTP proxy
// that spreads /api/v1 traffic over N ivrserve replicas sharing one
// session store and one segment tier.
//
// Affinity is rendezvous hashing (highest random weight) of the
// session ID over the healthy replicas: every request for a session
// lands on the same replica (so its RAM copy stays hot and its result
// cache keeps hitting), no table has to be kept, and when a replica
// dies only its sessions move — each to a deterministic next owner,
// which restores them from the shared session store on first touch.
// Requests without a session (create, shot metadata, listings) round-
// robin over the healthy replicas.
//
// Health probing runs on overload.Prober, the same loop the merge
// tier's segment cluster uses, ticking on Config.Clock: a first pass
// right away, then one every ProbeInterval, each probe a GET of
// /api/v1/healthz bounded by 2s. Three consecutive failures take a
// replica out of rotation, a "draining" answer routes new work away
// while the replica flushes, and one healthy probe brings it back.
// The proxy itself also reacts mid-request: a connection failure or a
// draining 503 re-routes the request to the session's next-best
// replica, so one kill -TERM loses zero queries.
//
// The router serves its own /api/v1/healthz (aggregated liveness),
// /api/v1/metrics (per-replica request/error/re-route counters plus
// each replica's last known health; ?format=prometheus for text
// exposition, also aliased at /metrics) and /api/v1/debug/traces (the
// ring of recent proxied-request traces), so dashboards see the whole
// front tier in one place.
//
// Every proxied request is traced: the router honours an inbound
// X-Request-Id (minting one otherwise), always asks the upstream
// replica for its span tree (X-IVR-Trace: 1) and grafts the echo under
// its own per-attempt "proxy" span — so one trace shows the router
// hop, each forward attempt, and the serve tier's internal stages. The
// assembled tree is echoed to the end client only when the client
// itself asked.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/tier"
	"repro/internal/trace"
)

// Defaults for Config knobs left zero.
const (
	DefaultProbeInterval = time.Second
	// DefaultSearchDeadline is the X-IVR-Deadline budget minted for
	// search requests that arrive without one: the whole-query wall
	// budget the lower tiers decrement and enforce.
	DefaultSearchDeadline = 10 * time.Second
	// maxBufferedBody bounds how much request body the proxy buffers
	// for replay on re-route (event batches are small; this is generous).
	maxBufferedBody = 8 << 20
	// probeTimeout bounds one health probe, and probeThreshold
	// consecutive probe failures take a replica out of rotation.
	probeTimeout   = 2 * time.Second
	probeThreshold = 3
)

// Config parameterises a Router.
type Config struct {
	// Replicas are the ivrserve base URLs ("http://host:port"). At
	// least one is required.
	Replicas []string
	// ProbeInterval is the health poll cadence (0 = 1s).
	ProbeInterval time.Duration
	// Client overrides the proxy/probe HTTP client (tests).
	Client *http.Client
	// Logger receives re-route and health-transition logs (nil = discard).
	Logger *slog.Logger
	// SlowQuery logs any proxied request at least this slow as a
	// structured slow-query line with its full span tree (0 disables).
	SlowQuery time.Duration
	// SearchDeadline is the X-IVR-Deadline budget minted for
	// /api/v1/search* requests that arrive without one (0 = 10s,
	// negative = mint nothing). Inbound budgets from SDK clients are
	// honoured as-is — decremented across the router hop, never raised.
	SearchDeadline time.Duration
	// Clock drives deadline-budget expiry and the probe loop (tests;
	// nil = real time).
	Clock overload.Clock
}

// replica is one backend and its routing state.
type replica struct {
	name string // base URL, no trailing slash
	host string

	healthy  atomic.Bool
	draining atomic.Bool

	requests atomic.Int64
	errors   atomic.Int64
	rerouted atomic.Int64
}

// Router is the front-tier proxy. Safe for concurrent use. Close
// stops the probe loop.
type Router struct {
	replicas []*replica
	client   *http.Client
	log      *slog.Logger
	cfg      Config
	tracer   *trace.Collector
	handler  http.Handler
	start    time.Time

	rr atomic.Uint64 // round-robin cursor for session-less requests

	// gate runs the deadline protocol on proxied requests and counts the
	// ones the router itself answered deadline_exceeded (budget spent
	// before or between forwards). The router sheds nothing.
	gate   *overload.Gate
	probes *overload.Prober[*replica]
}

// New builds a router and starts its health probe loop. All replicas
// start healthy (optimistic: the probe loop's first pass starts at
// once, and a mid-request failure corrects it immediately).
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas")
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeInterval < 0 {
		return nil, fmt.Errorf("router: negative config value")
	}
	switch {
	case cfg.SearchDeadline == 0:
		cfg.SearchDeadline = DefaultSearchDeadline
	case cfg.SearchDeadline < 0:
		cfg.SearchDeadline = 0 // minting disabled; inbound budgets still enforced
	}
	rt := &Router{client: cfg.Client, log: cfg.Logger, cfg: cfg, start: time.Now()}
	rt.tracer = trace.NewCollector(trace.CollectorConfig{
		Tier:          trace.TierRouter,
		SlowThreshold: cfg.SlowQuery,
	})
	if rt.client == nil {
		// Every timeout is bounded explicitly: dials and header waits
		// cannot hang forever on a wedged replica, and a replica that
		// stalls mid-body cannot pin a proxy goroutine past the longest
		// budget any request may legally carry. Per-request deadline
		// budgets (plus the client's own context) bound the usual cases.
		rt.client = &http.Client{Timeout: overload.MaxBudget, Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			TLSHandshakeTimeout:   5 * time.Second,
			ResponseHeaderTimeout: 30 * time.Second,
			MaxIdleConnsPerHost:   32,
			IdleConnTimeout:       90 * time.Second,
		}}
	}
	if rt.log == nil {
		rt.log = slog.New(slog.DiscardHandler)
	}
	rt.gate = overload.NewGate(trace.TierRouter, nil, cfg.Clock)
	rt.handler = trace.HTTPMiddleware(trace.HTTPConfig{
		Tier:      trace.TierRouter,
		Collector: rt.tracer,
		Skip:      ownEndpoint,
		Logger:    cfg.Logger,
	})(http.HandlerFunc(rt.route))
	seen := map[string]bool{}
	for _, raw := range cfg.Replicas {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: invalid replica URL %q", raw)
		}
		name := strings.TrimSuffix(raw, "/")
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate replica %q", name)
		}
		seen[name] = true
		rep := &replica{name: name, host: u.Host}
		rep.healthy.Store(true)
		rt.replicas = append(rt.replicas, rep)
	}
	rt.probes = overload.NewProber(overload.ProbeConfig[*replica]{
		Targets: func() []*replica { return rt.replicas },
		Check:   rt.checkHealth,
		Verdict: func(rep *replica, err error, fails int) {
			if err == nil && rep.healthy.CompareAndSwap(false, true) {
				rt.log.Info("replica back", "replica", rep.name)
			} else if err != nil && rep.healthy.CompareAndSwap(true, false) {
				rt.log.Warn("replica down (probes failed)", "replica", rep.name, "fails", fails, "err", err)
			}
		},
		Clock:     cfg.Clock,
		Interval:  cfg.ProbeInterval,
		Timeout:   probeTimeout,
		Threshold: probeThreshold,
	})
	return rt, nil
}

// Close stops the probe loop. Idempotent.
func (rt *Router) Close() error {
	rt.probes.Close()
	return nil
}

// rendezvousOrder ranks every replica for a session, best first:
// highest FNV-1a(sessionID, replicaName) wins. Deterministic for a
// given replica set, so every router instance and every request agree
// on the owner — and on the successor when the owner is down.
func (rt *Router) rendezvousOrder(sessionID string) []*replica {
	type scored struct {
		rep   *replica
		score uint64
	}
	ranked := make([]scored, len(rt.replicas))
	for i, rep := range rt.replicas {
		h := fnv.New64a()
		_, _ = io.WriteString(h, sessionID)
		_, _ = h.Write([]byte{0})
		_, _ = io.WriteString(h, rep.name)
		ranked[i] = scored{rep, h.Sum64()}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].score != ranked[b].score {
			return ranked[a].score > ranked[b].score
		}
		return ranked[a].rep.name < ranked[b].rep.name
	})
	out := make([]*replica, len(ranked))
	for i, s := range ranked {
		out[i] = s.rep
	}
	return out
}

// Owner reports which replica base URL a session routes to right now
// (ops introspection and tests).
func (rt *Router) Owner(sessionID string) string {
	for _, rep := range rt.rendezvousOrder(sessionID) {
		if rep.healthy.Load() && !rep.draining.Load() {
			return rep.name
		}
	}
	return ""
}

// roundRobinOrder ranks replicas for session-less requests: a moving
// start over the replica list, each followed by the rest as failover
// candidates.
func (rt *Router) roundRobinOrder() []*replica {
	n := len(rt.replicas)
	start := int(rt.rr.Add(1)-1) % n
	out := make([]*replica, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rt.replicas[(start+i)%n])
	}
	return out
}

// sessionID extracts the session a request is about ("" when none):
// the ?session= query parameter (search), the /api/v1/sessions/{id}
// path (state, delete), or the session_id field of a buffered JSON
// body (event batches).
func sessionID(r *http.Request, body []byte) string {
	if sid := r.URL.Query().Get("session"); sid != "" {
		return sid
	}
	// Cut from the escaped path so a %2F inside the ID is not mistaken
	// for a path separator (the replica's mux makes the same call).
	if rest, ok := strings.CutPrefix(r.URL.EscapedPath(), "/api/v1/sessions/"); ok && rest != "" && !strings.Contains(rest, "/") {
		if sid, err := url.PathUnescape(rest); err == nil {
			return sid
		}
		return rest
	}
	if len(body) > 0 && strings.HasPrefix(r.URL.Path, "/api/v1/events") {
		var peek struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(body, &peek); err == nil {
			return peek.SessionID
		}
	}
	return ""
}

// hopHeaders are not forwarded between hops.
var hopHeaders = []string{"Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade"}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
	for _, h := range hopHeaders {
		dst.Del(h)
	}
}

// ownEndpoint reports the paths the router answers itself; they are
// not worth a trace-ring slot.
func ownEndpoint(path string) bool {
	switch path {
	case "/api/v1/healthz", "/api/v1/metrics", "/metrics", "/api/v1/debug/traces":
		return true
	}
	return false
}

// ServeHTTP serves one request through the shared tier chain
// (request ID, trace, request log, panic recovery).
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.handler.ServeHTTP(w, r) }

// route dispatches one request: the router's own endpoints first,
// everything else proxied with session affinity and failover.
func (rt *Router) route(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		switch r.URL.Path {
		case "/api/v1/healthz":
			rt.serveHealthz(w)
			return
		case "/api/v1/debug/traces":
			rt.tracer.ServeHTTP(w, r)
			return
		case "/api/v1/metrics":
			if r.URL.Query().Get("format") != "prometheus" {
				rt.serveMetrics(w)
				return
			}
			rt.servePrometheus(w)
			return
		case "/metrics":
			rt.servePrometheus(w)
			return
		}
	}
	rt.proxy(w, r)
}

// proxy forwards a request down its candidate list until a replica
// answers (or answers with anything but "I'm draining/unreachable").
//
// The chain in front has already settled the correlation ID (the
// client's, or a minted one) and opened the trace; forward stamps the
// ID on every attempt so serve and segment tag their spans with it.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBufferedBody+1))
		r.Body.Close()
		if err != nil {
			tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "read body: %v", err)
			return
		}
		if len(body) > maxBufferedBody {
			tier.WriteError(w, http.StatusRequestEntityTooLarge, tier.CodeInvalid, "body over %d bytes", maxBufferedBody)
			return
		}
	}

	// Deadline budget: honour an inbound X-IVR-Deadline (the SDK's),
	// minting the configured default for search requests that arrive
	// without one. The budget is bound into the request context here and
	// re-encoded per forward attempt with the elapsed time subtracted —
	// so a re-routed request carries only what is left of the original
	// budget, and lower tiers never see it grow.
	var mint time.Duration
	if r.URL.Path == "/api/v1/search" {
		mint = rt.cfg.SearchDeadline
	}
	ctx, release, ok := rt.gate.Enter(w, r, mint)
	if !ok {
		return
	}
	defer release()
	r = r.WithContext(ctx)

	sid := sessionID(r, body)
	var candidates []*replica
	if sid != "" {
		candidates = rt.rendezvousOrder(sid)
	} else {
		candidates = rt.roundRobinOrder()
	}

	// Try healthy, non-draining replicas first (in affinity order),
	// then — only if every replica looked bad — the rest anyway,
	// rather than failing the query without asking anyone. Each
	// replica is tried at most once per request.
	good := make([]bool, len(candidates))
	for i, rep := range candidates {
		good[i] = rep.healthy.Load() && !rep.draining.Load()
	}
	order := make([]*replica, 0, len(candidates))
	for i, rep := range candidates {
		if good[i] {
			order = append(order, rep)
		}
	}
	for i, rep := range candidates {
		if !good[i] {
			order = append(order, rep)
		}
	}

	for i, rep := range order {
		done, retriable := rt.forward(w, r, rep, body, i > 0)
		if done || !retriable {
			return
		}
	}
	tier.WriteError(w, http.StatusBadGateway, tier.CodeNoReplica, "no replica available for %s %s", r.Method, r.URL.Path)
}

// forward sends the request to one replica and relays the answer.
// done=true means a response went out; retriable=true means nothing
// was written and the next candidate should be tried.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, rep *replica, body []byte, isReroute bool) (done, retriable bool) {
	rep.requests.Add(1)
	if isReroute {
		rep.rerouted.Add(1)
	}
	// One "proxy" span per forward attempt: a re-routed request shows
	// every replica it tried, each attempt carrying the upstream's own
	// grafted span tree when one came back.
	_, sp := trace.StartSpan(r.Context(), "proxy")
	sp.SetAttr("replica", rep.name)
	defer sp.End()
	outURL := rep.name + r.URL.Path
	if r.URL.RawQuery != "" {
		outURL += "?" + r.URL.RawQuery
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, outURL, bytes.NewReader(body))
	if err != nil {
		tier.WriteError(w, http.StatusInternalServerError, tier.CodeInternal, "%v", err)
		return true, false
	}
	copyHeaders(out.Header, r.Header)
	out.Header.Set(trace.RequestIDHeader, w.Header().Get(trace.RequestIDHeader))
	// Re-encode the remaining deadline budget for this attempt
	// (overriding the stale inbound header copied above). A budget too
	// small to be worth a network hop is answered here instead.
	if rem, ok := overload.RemainingFromContext(r.Context()); ok {
		if rem < overload.MinForward {
			sp.SetAttr("error", "deadline")
			rt.gate.Exceeded(w, "deadline budget spent at router")
			return true, false
		}
		out.Header.Set(overload.DeadlineHeader, overload.FormatDeadline(rem))
	}
	// Always ask the upstream for its server-side tree, whatever the
	// end client asked for; the graft below is what makes the router's
	// ring and slow-query log self-contained. The assembled tree is
	// echoed to the end client (by the chain) only when it asked.
	out.Header.Set(trace.Header, trace.RequestEcho)
	resp, err := rt.client.Do(out)
	if err != nil {
		// Transport failure: the replica is gone right now — take it
		// out of rotation immediately (the probe loop brings it back)
		// and move on. Nothing was written, so the retry is invisible.
		rep.errors.Add(1)
		sp.SetAttr("error", "transport")
		if rep.healthy.CompareAndSwap(true, false) {
			rt.log.Warn("replica down (request failed)", "replica", rep.name, "err", err)
		}
		if r.Context().Err() != nil {
			return true, false // client gone; stop trying
		}
		return false, true
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		// Draining (or overloaded) replica: its sessions are in the
		// shared store, so the next candidate can adopt this one now.
		if isDrainingResponse(resp) {
			rep.draining.Store(true)
			sp.SetAttr("error", "draining")
			rt.log.Info("replica draining, re-routing", "replica", rep.name)
			io.Copy(io.Discard, resp.Body)
			return false, true
		}
	}
	// Graft the upstream's server-observed tree under this attempt's
	// span, then strip the transport headers the router owns: the
	// upstream echo must not leak to a client that never asked, and the
	// correlation ID is already set on the response.
	if remote, derr := trace.DecodeSpan(resp.Header.Get(trace.Header)); derr == nil {
		sp.Graft(remote)
	}
	resp.Header.Del(trace.Header)
	resp.Header.Del(trace.RequestIDHeader)
	// Relay everything else verbatim, including application errors.
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true, false
}

// isDrainingResponse peeks a 503's envelope for code "draining"
// without consuming more than a small prefix.
func isDrainingResponse(resp *http.Response) bool {
	if resp.Header.Get("Retry-After") == "" {
		return false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return false
	}
	// A false return relays this 503, so put the prefix read here back
	// in front of the rest; the caller's deferred Close still closes
	// the original body.
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(data), resp.Body))
	var env tier.ErrorEnvelope
	return json.Unmarshal(data, &env) == nil && env.Error.Code == tier.CodeDraining
}

// --- health probing ---

// checkHealth GETs one replica's /api/v1/healthz: anything but a 200
// is a failed probe, and a 200 also carries the replica's drain state.
func (rt *Router) checkHealth(ctx context.Context, rep *replica) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.name+"/api/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	var hz struct {
		Draining bool `json:"draining"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hz)
	if hz.Draining != rep.draining.Swap(hz.Draining) {
		rt.log.Info("replica drain state", "replica", rep.name, "draining", hz.Draining)
	}
	return nil
}

// --- router-owned endpoints ---

// ReplicaStatus is one backend's row in the router's telemetry.
type ReplicaStatus struct {
	Replica  string `json:"replica"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	Rerouted int64  `json:"rerouted"`
}

// Status snapshots every replica's routing state, in configured order.
func (rt *Router) Status() []ReplicaStatus {
	out := make([]ReplicaStatus, len(rt.replicas))
	for i, rep := range rt.replicas {
		out[i] = ReplicaStatus{
			Replica:  rep.name,
			Healthy:  rep.healthy.Load(),
			Draining: rep.draining.Load(),
			Requests: rep.requests.Load(),
			Errors:   rep.errors.Load(),
			Rerouted: rep.rerouted.Load(),
		}
	}
	return out
}

func (rt *Router) serveHealthz(w http.ResponseWriter) {
	healthy := 0
	for _, rep := range rt.replicas {
		if rep.healthy.Load() {
			healthy++
		}
	}
	status, code := "ok", http.StatusOK
	if healthy == 0 {
		status, code = "down", http.StatusServiceUnavailable
	}
	tier.WriteJSON(w, code, map[string]any{
		"status":   status,
		"router":   true,
		"replicas": len(rt.replicas),
		"healthy":  healthy,
	})
}

func (rt *Router) serveMetrics(w http.ResponseWriter) {
	tier.WriteJSON(w, http.StatusOK, map[string]any{
		"router":            true,
		"replicas":          rt.Status(),
		"deadline_exceeded": rt.gate.DeadlineExceeded(),
	})
}

// servePrometheus writes the router's text exposition: tier info,
// uptime, and per-replica routing counters.
func (rt *Router) servePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", metrics.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	pw := metrics.NewPromWriter(w)
	pw.Family("ivr_tier_info", "gauge")
	pw.Sample("ivr_tier_info", 1, "tier", trace.TierRouter)
	pw.Family("ivr_uptime_seconds", "gauge")
	pw.Sample("ivr_uptime_seconds", time.Since(rt.start).Seconds())
	status := rt.Status()
	bool01 := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	pw.Family("ivr_replica_healthy", "gauge")
	for _, st := range status {
		pw.Sample("ivr_replica_healthy", bool01(st.Healthy), "replica", st.Replica)
	}
	pw.Family("ivr_replica_draining", "gauge")
	for _, st := range status {
		pw.Sample("ivr_replica_draining", bool01(st.Draining), "replica", st.Replica)
	}
	pw.Family("ivr_replica_requests_total", "counter")
	for _, st := range status {
		pw.Sample("ivr_replica_requests_total", float64(st.Requests), "replica", st.Replica)
	}
	pw.Family("ivr_replica_errors_total", "counter")
	for _, st := range status {
		pw.Sample("ivr_replica_errors_total", float64(st.Errors), "replica", st.Replica)
	}
	pw.Family("ivr_replica_rerouted_total", "counter")
	for _, st := range status {
		pw.Sample("ivr_replica_rerouted_total", float64(st.Rerouted), "replica", st.Replica)
	}
	rt.gate.WritePrometheus(pw)
}

// Tracer exposes the router's trace collector (ops and tests).
func (rt *Router) Tracer() *trace.Collector { return rt.tracer }

// Healthy reports how many replicas are currently in rotation.
func (rt *Router) Healthy() int {
	n := 0
	for _, rep := range rt.replicas {
		if rep.healthy.Load() && !rep.draining.Load() {
			n++
		}
	}
	return n
}

var _ http.Handler = (*Router)(nil)

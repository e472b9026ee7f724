// Package webapi exposes the adaptive retrieval system over a
// versioned HTTP/JSON API: the concrete "desktop interface" backend
// the paper's framework proposal sketches. A front-end creates a
// session, searches (one paginated page per iteration), and feeds
// interaction events back; the server adapts subsequent rankings per
// session. Session ownership lives in core.SessionManager, so many
// front-ends can search concurrently without serializing on a global
// lock.
//
// Routes (all JSON; errors use the envelope
// {"error":{"code":"...","message":"..."}}):
//
//	POST   /api/v1/sessions                       create a session (optional profile)
//	GET    /api/v1/sessions                       paginated live-session listing
//	GET    /api/v1/sessions/{id}                  session state
//	DELETE /api/v1/sessions/{id}                  end a session
//	GET    /api/v1/search?session=&q=             adapted search; &offset=&limit= paginate,
//	                                              &cat=a,b facets by category
//	POST   /api/v1/events                         feed a batch of interaction events
//	GET    /api/v1/shots/{id}                     shot metadata
//	GET    /api/v1/healthz                        liveness + session stats
//	GET    /api/v1/metrics                        telemetry snapshot (per-route counters,
//	                                              latency quantiles, session-table stats);
//	                                              ?format=prometheus for text exposition
//	GET    /api/v1/debug/traces                   ring of recently finished query traces
//	GET    /api/v1/admin/topology                 live segment-replica topology (404 unless
//	                                              wired with WithTopologyAdmin)
//	POST   /api/v1/admin/topology                 validate + atomically apply a topology
//	                                              descriptor without restarting
//	GET    /metrics                               Prometheus scrape alias
//
// Anything else — unknown /api/v1 routes and unversioned /api/...
// paths alike — answers the envelope 404. Every response carries an
// X-Request-Id header (honouring the client's, minting one otherwise).
package webapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sync/atomic"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/ilog"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/profile"
	"repro/internal/retrieval"
	"repro/internal/sessionstore"
	"repro/internal/tier"
	"repro/internal/trace"
)

// Pagination bounds.
const (
	defaultLimit = 20
	maxLimit     = 1000
)

// Server hosts the versioned API over one adaptive system. Safe for
// concurrent use; per-session serialization is the SessionManager's
// job. Close releases the manager's sweeper when the server owns it.
type Server struct {
	sys       *core.System
	mgr       *core.SessionManager
	metrics   *metrics.Registry
	tracer    *trace.Collector
	ownsMgr   bool
	replicaID string
	topo      TopologyAdmin
	handler   http.Handler
	// gate runs the overload protocol on search work: X-IVR-Deadline
	// budgets, admission control, and the deadline_exceeded ledger.
	gate *overload.Gate
	// partial counts degraded (partial) pages served.
	partial atomic.Int64
}

// TopologyAdmin is the segment-replica topology surface a distributed
// merge tier (distrib.Cluster) exposes through the admin endpoint.
// ApplyTopology validates a descriptor document and atomically swaps
// the replica routing table — or rejects it wholesale, leaving the
// running topology untouched. DescribeTopology snapshots the live
// topology for the GET side.
type TopologyAdmin interface {
	ApplyTopology(ctx context.Context, descriptor []byte) error
	DescribeTopology() any
}

// Option configures a Server.
type Option func(*serverConfig)

type serverConfig struct {
	logger      *slog.Logger
	mgr         *core.SessionManager
	sessionTTL  time.Duration
	maxSessions int
	store       sessionstore.SessionStore
	replicaID   string
	slowQuery   time.Duration
	topo        TopologyAdmin
	admission   overload.AdmissionConfig
	clock       overload.Clock
}

// WithLogger routes request and error logs (default: discard).
func WithLogger(l *slog.Logger) Option {
	return func(c *serverConfig) { c.logger = l }
}

// WithSessionTTL evicts sessions idle longer than ttl (default: no
// eviction). Ignored when WithSessionManager is given.
func WithSessionTTL(ttl time.Duration) Option {
	return func(c *serverConfig) { c.sessionTTL = ttl }
}

// WithMaxSessions caps live sessions (default: unbounded). Ignored
// when WithSessionManager is given.
func WithMaxSessions(n int) Option {
	return func(c *serverConfig) { c.maxSessions = n }
}

// WithSessionManager serves an externally owned manager; the caller
// keeps responsibility for closing it.
func WithSessionManager(m *core.SessionManager) Option {
	return func(c *serverConfig) { c.mgr = m }
}

// WithSessionStore makes sessions durable: every mutation is written
// through, misses restore lazily, and drain/shutdown flushes (see
// core.ManagerOptions.Store). The caller keeps ownership of the store
// and closes it after the server. Ignored when WithSessionManager is
// given (configure the manager's Store directly instead).
func WithSessionStore(st sessionstore.SessionStore) Option {
	return func(c *serverConfig) { c.store = st }
}

// WithReplicaID names this replica in a multi-replica deployment: the
// name is echoed on every response (X-IVR-Replica), in healthz and in
// metrics, so the front tier and dashboards can tell replicas apart.
func WithReplicaID(id string) Option {
	return func(c *serverConfig) { c.replicaID = id }
}

// WithSlowQuery logs any traced request at least this slow as a
// structured slow-query line (full span tree as JSON) through the
// process's stderr. 0 disables the log; tracing itself is always on.
func WithSlowQuery(d time.Duration) Option {
	return func(c *serverConfig) { c.slowQuery = d }
}

// WithAdmission sizes the serve tier's search admission gate: at most
// InitialLimit searches in flight (AIMD-adapted toward Target when one
// is set), a bounded queue of MaxQueue absorbing bursts, and typed 429
// "overloaded" sheds past that. Without this option the gate is
// effectively transparent (limit 4096) but its ivr_admission_*
// families are still scrapeable.
func WithAdmission(cfg overload.AdmissionConfig) Option {
	return func(c *serverConfig) { c.admission = cfg }
}

// WithOverloadClock substitutes the clock driving X-IVR-Deadline
// budget expiry (chaostest injects a manual clock; nil = real time).
func WithOverloadClock(clk overload.Clock) Option {
	return func(c *serverConfig) { c.clock = clk }
}

// WithTopologyAdmin wires the /api/v1/admin/topology endpoint to a
// distributed merge tier's topology: GET serves the live replica
// layout, POST validates and atomically applies a new descriptor
// (live reload — no restart). Without this option the endpoint
// answers 404, which is the correct shape for an in-process server
// that has no topology to administer.
func WithTopologyAdmin(t TopologyAdmin) Option {
	return func(c *serverConfig) { c.topo = t }
}

// NewServer wraps a system, building (and owning) a SessionManager
// unless one is supplied.
func NewServer(sys *core.System, opts ...Option) (*Server, error) {
	if sys == nil {
		return nil, fmt.Errorf("webapi: nil system")
	}
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{sys: sys, mgr: cfg.mgr, metrics: metrics.NewRegistry(), replicaID: cfg.replicaID, topo: cfg.topo}
	s.gate = overload.NewGate(trace.TierServe, &cfg.admission, cfg.clock)
	if s.mgr == nil {
		m, err := core.NewSessionManager(sys, core.ManagerOptions{
			TTL:         cfg.sessionTTL,
			MaxSessions: cfg.maxSessions,
			Store:       cfg.store,
		})
		if err != nil {
			return nil, err
		}
		s.mgr = m
		s.ownsMgr = true
	}
	s.tracer = trace.NewCollector(trace.CollectorConfig{
		Tier:          trace.TierServe,
		SlowThreshold: cfg.slowQuery,
	})
	// Stage quantiles (expand/prepare/segment/merge/...) observed by the
	// collector surface in the retrieval section of /api/v1/metrics.
	sys.SetStageTelemetry(s.tracer.StageSummaries)
	s.handler = trace.HTTPMiddleware(trace.HTTPConfig{
		Tier:      trace.TierServe,
		Collector: s.tracer,
		Skip:      skipTrace,
		Logger:    cfg.logger,
	})(s.routes())
	if s.replicaID != "" {
		s.handler = withReplicaHeader(s.replicaID, s.handler)
	}
	return s, nil
}

// Manager exposes the session manager (ops and tests).
func (s *Server) Manager() *core.SessionManager { return s.mgr }

// ReplicaID reports the name set with WithReplicaID ("" when unset).
func (s *Server) ReplicaID() string { return s.replicaID }

// BeginDrain puts the server into drain mode: resident sessions are
// flushed to the store and session-touching requests answer 503 with
// a Retry-After so the front tier re-routes them to a sibling replica.
// Returns how many sessions were flushed. There is no un-drain; the
// process is expected to shut down next.
func (s *Server) BeginDrain() (int, error) { return s.mgr.Drain() }

// Metrics exposes the server's telemetry registry (ops and tests).
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// Tracer exposes the server's trace collector (ops and tests).
func (s *Server) Tracer() *trace.Collector { return s.tracer }

// Gate exposes the server's overload gate (ops and tests).
func (s *Server) Gate() *overload.Gate { return s.gate }

// Close stops the session manager when the server owns it.
func (s *Server) Close() error {
	if s.ownsMgr {
		return s.mgr.Close()
	}
	return nil
}

// Handler returns the middleware-wrapped route table.
func (s *Server) Handler() http.Handler { return s.handler }

// routeUnmatched is the telemetry label of the catch-all handler. Real
// routes are labelled by their mux pattern ("GET /api/v1/search"); the
// catch-all follows the same "<method> <pattern>" shape with "*" as
// the any-method marker so every label in /api/v1/metrics parses the
// same way.
const routeUnmatched = "* /"

// routes builds the versioned route table. Every handler is registered
// through the registry's Instrument wrapper, which feeds the route's
// counter and latency histogram under its fixed pattern label.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.metrics.Instrument(pattern, h))
	}
	handle("POST /api/v1/sessions", s.handleCreateSession)
	handle("GET /api/v1/sessions", s.handleListSessions)
	handle("GET /api/v1/sessions/{id}", s.handleGetSession)
	handle("DELETE /api/v1/sessions/{id}", s.handleDeleteSession)
	handle("GET /api/v1/search", s.handleSearch)
	handle("POST /api/v1/events", s.handleEvents)
	handle("GET /api/v1/shots/{id}", s.handleShot)
	handle("GET /api/v1/healthz", s.handleHealthz)
	handle("GET /api/v1/metrics", s.handleMetrics)
	handle("GET /api/v1/debug/traces", s.tracer.ServeHTTP)
	handle("GET /api/v1/admin/topology", s.handleGetTopology)
	handle("POST /api/v1/admin/topology", s.handlePostTopology)
	handle("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("/", s.metrics.Instrument(routeUnmatched, func(w http.ResponseWriter, r *http.Request) {
		tier.WriteError(w, http.StatusNotFound, tier.CodeNotFound, "no route %s %s", r.Method, r.URL.Path)
	}))
	return mux
}

// writeManagerErr maps SessionManager errors onto the envelope.
func writeManagerErr(w http.ResponseWriter, err error, sessionID string) {
	switch {
	case errors.Is(err, core.ErrSessionNotFound):
		tier.WriteError(w, http.StatusNotFound, tier.CodeNotFound, "unknown session %q", sessionID)
	case errors.Is(err, core.ErrTooManySessions):
		tier.WriteError(w, http.StatusServiceUnavailable, tier.CodeTooMany, "session capacity reached")
	case errors.Is(err, core.ErrDraining):
		// The replica is handing its sessions off; state is already in
		// the shared store, so the request succeeds anywhere else.
		w.Header().Set("Retry-After", "1")
		tier.WriteError(w, http.StatusServiceUnavailable, tier.CodeDraining, "replica draining, retry elsewhere")
	default:
		tier.WriteError(w, http.StatusInternalServerError, tier.CodeInternal, "%v", err)
	}
}

// createSessionRequest optionally declares a static profile.
type createSessionRequest struct {
	UserID string `json:"user_id"`
	// Interests maps category names ("sports") to [0,1].
	Interests map[string]float64 `json:"interests,omitempty"`
}

type createSessionResponse struct {
	SessionID string `json:"session_id"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if err := decodeBody(r.Body, &req); err != nil {
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "invalid JSON: %v", err)
		return
	}
	var user *profile.Profile
	if req.UserID != "" || len(req.Interests) > 0 {
		uid := req.UserID
		if uid == "" {
			uid = "anonymous"
		}
		user = profile.New(uid)
		for name, v := range req.Interests {
			cat, err := collection.ParseCategory(name)
			if err != nil {
				tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "%v", err)
				return
			}
			if v < 0 || v > 1 {
				tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "interest %q=%v outside [0,1]", name, v)
				return
			}
			user.SetInterest(cat, v)
		}
	}
	id, err := s.mgr.Create(user)
	if err != nil {
		writeManagerErr(w, err, "")
		return
	}
	tier.WriteJSON(w, http.StatusCreated, createSessionResponse{SessionID: id})
}

// decodeBody decodes one JSON value, tolerating an empty body (the
// create endpoint treats it as the zero request).
func decodeBody(body io.Reader, v any) error {
	err := json.NewDecoder(body).Decode(v)
	if errors.Is(err, io.EOF) {
		return nil
	}
	return err
}

// sessionState reports a session's public state.
type sessionState struct {
	SessionID string             `json:"session_id"`
	Step      int                `json:"step"`
	Evidence  int                `json:"evidence"`
	SeenShots int                `json:"seen_shots"`
	LastQuery string             `json:"last_query,omitempty"`
	Interests map[string]float64 `json:"interests,omitempty"`
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var state sessionState
	err := s.mgr.With(id, func(sess *core.Session) error {
		state = sessionState{
			SessionID: id,
			Step:      sess.Step(),
			Evidence:  sess.EvidenceCount(),
			SeenShots: sess.SeenShots(),
			LastQuery: sess.LastQuery(),
			Interests: map[string]float64{},
		}
		for _, cat := range sess.User().Categories() {
			state.Interests[cat.String()] = sess.User().Interest(cat)
		}
		return nil
	})
	if err != nil {
		writeManagerErr(w, err, id)
		return
	}
	tier.WriteJSON(w, http.StatusOK, state)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Delete(id); err != nil {
		writeManagerErr(w, err, id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// sessionListEntry is one row of the sessions listing.
type sessionListEntry struct {
	SessionID   string  `json:"session_id"`
	IdleSeconds float64 `json:"idle_seconds"`
	Step        int     `json:"step"`
	Evidence    int     `json:"evidence"`
	SeenShots   int     `json:"seen_shots"`
	LastQuery   string  `json:"last_query,omitempty"`
}

// sessionListResponse is the paginated live-session directory.
type sessionListResponse struct {
	Total    int                `json:"total"`
	Offset   int                `json:"offset"`
	Limit    int                `json:"limit"`
	Sessions []sessionListEntry `json:"sessions"`
}

// handleListSessions serves the paginated live-session directory
// (?offset=&limit= as on /search). Only the requested window is
// inspected under session locks; inspection does not touch idle
// clocks, so polling the listing never keeps sessions alive. Sessions
// deleted between the snapshot and the window read are skipped.
func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	offset, limit, ok := parsePageParams(w, r)
	if !ok {
		return
	}
	infos := s.mgr.List()
	resp := sessionListResponse{
		Total:    len(infos),
		Offset:   offset,
		Limit:    limit,
		Sessions: []sessionListEntry{},
	}
	if offset < len(infos) {
		win := infos[offset:]
		if len(win) > limit {
			win = win[:limit]
		}
		now := time.Now()
		for _, info := range win {
			entry := sessionListEntry{
				SessionID:   info.ID,
				IdleSeconds: now.Sub(info.LastUsed).Seconds(),
			}
			err := s.mgr.Inspect(info.ID, func(sess *core.Session) error {
				entry.Step = sess.Step()
				entry.Evidence = sess.EvidenceCount()
				entry.SeenShots = sess.SeenShots()
				entry.LastQuery = sess.LastQuery()
				return nil
			})
			if errors.Is(err, core.ErrSessionNotFound) {
				continue // raced with Delete/expiry
			}
			if err != nil {
				writeManagerErr(w, err, info.ID)
				return
			}
			resp.Sessions = append(resp.Sessions, entry)
		}
	}
	tier.WriteJSON(w, http.StatusOK, resp)
}

// sessionCounters is the session-table section of the metrics body.
type sessionCounters struct {
	Live    int   `json:"live"`
	Created int64 `json:"created"`
	Evicted int64 `json:"evicted"`
	// Durability counters (all zero without a session store).
	Restored      int64 `json:"restored,omitempty"`
	Persisted     int64 `json:"persisted,omitempty"`
	PersistErrors int64 `json:"persist_errors,omitempty"`
}

// metricsResponse is the /api/v1/metrics schema: the registry
// snapshot (uptime, in-flight gauge, per-route counters + latency
// quantiles), session-table counters, and the retrieval-engine
// section (result-cache counters + per-segment fan-out timing).
type metricsResponse struct {
	metrics.Snapshot
	Replica  string             `json:"replica,omitempty"`
	Draining bool               `json:"draining,omitempty"`
	Sessions sessionCounters    `json:"sessions"`
	Search   retrieval.Snapshot `json:"search"`
	// Admission is the serve tier's search admission gate; the overload
	// counters tally typed deadline_exceeded answers and degraded
	// (partial) pages served.
	Admission        overload.AdmissionStats `json:"admission"`
	DeadlineExceeded int64                   `json:"deadline_exceeded,omitempty"`
	PartialResults   int64                   `json:"partial_results,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		s.handlePrometheus(w, r)
		return
	}
	st := s.mgr.Stats()
	tier.WriteJSON(w, http.StatusOK, metricsResponse{
		Snapshot: s.metrics.TakeSnapshot(),
		Replica:  s.replicaID,
		Draining: s.mgr.Draining(),
		Sessions: sessionCounters{
			Live: st.Live, Created: st.Created, Evicted: st.Evicted,
			Restored: st.Restored, Persisted: st.Persisted, PersistErrors: st.PersistErrors,
		},
		Search:           s.sys.RetrievalSnapshot(),
		Admission:        s.gate.Admission().Stats(),
		DeadlineExceeded: s.gate.DeadlineExceeded(),
		PartialResults:   s.partial.Load(),
	})
}

// handlePrometheus serves the text exposition (format 0.0.4) scrape
// body: the shared HTTP families plus the serve tier's own sessions,
// result-cache and per-stage families.
func (s *Server) handlePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.WritePrometheus(w, trace.TierServe)
	pw := metrics.NewPromWriter(w)
	st := s.mgr.Stats()
	pw.Family("ivr_sessions_live", "gauge")
	pw.Sample("ivr_sessions_live", float64(st.Live))
	pw.Family("ivr_sessions_created_total", "counter")
	pw.Sample("ivr_sessions_created_total", float64(st.Created))
	pw.Family("ivr_sessions_evicted_total", "counter")
	pw.Sample("ivr_sessions_evicted_total", float64(st.Evicted))
	snap := s.sys.RetrievalSnapshot()
	pw.Family("ivr_cache_lookups_total", "counter")
	pw.Sample("ivr_cache_lookups_total", float64(snap.Cache.Hits), "result", "hit")
	pw.Sample("ivr_cache_lookups_total", float64(snap.Cache.Shared), "result", "shared")
	pw.Sample("ivr_cache_lookups_total", float64(snap.Cache.Misses), "result", "miss")
	if len(snap.Stages) > 0 {
		pw.Family("ivr_stage_duration_seconds", "summary")
		for _, sg := range snap.Stages {
			pw.Summary("ivr_stage_duration_seconds", sg.Latency, "stage", sg.Stage)
		}
	}
	// Replicated merge tier only: per-backend health and hedging. The
	// families are emitted whenever backends exist — even all-zero — so
	// a scrape (or the CI smoke grep) can assert their presence before
	// the first hedge fires.
	if len(snap.Backends) > 0 {
		pw.Family("ivr_backend_healthy", "gauge")
		for _, b := range snap.Backends {
			healthy := 0.0
			if b.Healthy {
				healthy = 1
			}
			pw.Sample("ivr_backend_healthy", healthy, "backend", b.Addr)
		}
		pw.Family("ivr_rpc_hedge_total", "counter")
		for _, b := range snap.Backends {
			pw.Sample("ivr_rpc_hedge_total", float64(b.Hedges), "backend", b.Addr)
		}
		pw.Family("ivr_rpc_failover_total", "counter")
		for _, b := range snap.Backends {
			pw.Sample("ivr_rpc_failover_total", float64(b.Failovers), "backend", b.Addr)
		}
		pw.Family("ivr_probe_failures_total", "counter")
		for _, b := range snap.Backends {
			pw.Sample("ivr_probe_failures_total", float64(b.ProbeFailures), "backend", b.Addr)
		}
		pw.Family("ivr_breaker_state", "gauge")
		for _, b := range snap.Backends {
			pw.Sample("ivr_breaker_state", breakerStateCode(b.Breaker), "backend", b.Addr)
		}
		pw.Family("ivr_breaker_trips_total", "counter")
		for _, b := range snap.Backends {
			pw.Sample("ivr_breaker_trips_total", float64(b.BreakerTrips), "backend", b.Addr)
		}
	}
	if rb := snap.RetryBudget; rb != nil {
		pw.Family("ivr_retry_budget_tokens", "gauge")
		pw.Sample("ivr_retry_budget_tokens", rb.Tokens)
		pw.Family("ivr_retry_budget_taken_total", "counter")
		pw.Sample("ivr_retry_budget_taken_total", float64(rb.Taken))
		pw.Family("ivr_retry_budget_denied_total", "counter")
		pw.Sample("ivr_retry_budget_denied_total", float64(rb.Denied))
	}
	s.gate.WritePrometheus(pw)
	pw.Family("ivr_partial_results_total", "counter")
	pw.Sample("ivr_partial_results_total", float64(s.partial.Load()))
}

// breakerStateCode maps a breaker state string to its stable gauge
// value: 0 closed (or breakers disabled), 1 open, 2 half-open.
func breakerStateCode(state string) float64 {
	switch state {
	case "open":
		return 1
	case "half_open":
		return 2
	default:
		return 0
	}
}

// maxTopologyBody bounds a POSTed topology descriptor; real
// descriptors are a few hundred bytes, so 1 MiB is pure headroom.
const maxTopologyBody = 1 << 20

func (s *Server) handleGetTopology(w http.ResponseWriter, r *http.Request) {
	if s.topo == nil {
		tier.WriteError(w, http.StatusNotFound, tier.CodeNotFound, "no topology admin wired (in-process engine?)")
		return
	}
	tier.WriteJSON(w, http.StatusOK, s.topo.DescribeTopology())
}

func (s *Server) handlePostTopology(w http.ResponseWriter, r *http.Request) {
	if s.topo == nil {
		tier.WriteError(w, http.StatusNotFound, tier.CodeNotFound, "no topology admin wired (in-process engine?)")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxTopologyBody+1))
	if err != nil {
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "read descriptor: %v", err)
		return
	}
	if len(body) > maxTopologyBody {
		tier.WriteError(w, http.StatusRequestEntityTooLarge, tier.CodeInvalid, "descriptor exceeds %d bytes", maxTopologyBody)
		return
	}
	if err := s.topo.ApplyTopology(r.Context(), body); err != nil {
		// Any rejection — syntax, invariant, unreachable replica, or
		// collection mismatch — left the running topology untouched;
		// surface the typed error text so the operator can fix the
		// descriptor and re-POST.
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "topology rejected: %v", err)
		return
	}
	tier.WriteJSON(w, http.StatusOK, s.topo.DescribeTopology())
}

// searchHit is one result entry with display metadata.
type searchHit struct {
	Rank     int     `json:"rank"`
	ShotID   string  `json:"shot_id"`
	Score    float64 `json:"score"`
	StoryID  string  `json:"story_id,omitempty"`
	Title    string  `json:"title,omitempty"`
	Category string  `json:"category,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"`
}

// searchPage is one page of an adapted ranking.
type searchPage struct {
	SessionID string `json:"session_id"`
	Query     string `json:"query"`
	Step      int    `json:"step"`
	// Candidates counts shots matching the query before ranking cuts.
	Candidates int `json:"candidates"`
	// Total counts ranked hits available for paging (bounded by the
	// system's configured ranking depth).
	Total  int `json:"total"`
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
	// Partial marks a degraded-mode page: one or more segments did not
	// answer and the ranking covers only the segments that did. Never
	// torn — every hit listed is a complete, correctly merged result
	// from an answering segment.
	Partial bool        `json:"partial,omitempty"`
	Hits    []searchHit `json:"hits"`
}

// searchParams carries the parsed, validated query of both search
// endpoints.
type searchParams struct {
	sessionID string
	query     string
	offset    int
	limit     int
	filter    core.ShotFilter
}

// parsePageParams validates the shared ?offset=&limit= pagination
// parameters; on error it has already written the 400 envelope.
func parsePageParams(w http.ResponseWriter, r *http.Request) (offset, limit int, ok bool) {
	limit = defaultLimit
	if os := r.URL.Query().Get("offset"); os != "" {
		v, err := strconv.Atoi(os)
		if err != nil || v < 0 {
			tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "bad offset %q", os)
			return 0, 0, false
		}
		offset = v
	}
	if ls := r.URL.Query().Get("limit"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v <= 0 || v > maxLimit {
			tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "bad limit %q (1..%d)", ls, maxLimit)
			return 0, 0, false
		}
		limit = v
	}
	return offset, limit, true
}

// parseSearchParams validates the search query string; on
// error it has already written the 400 envelope.
func (s *Server) parseSearchParams(w http.ResponseWriter, r *http.Request) (searchParams, bool) {
	p := searchParams{
		sessionID: r.URL.Query().Get("session"),
		query:     r.URL.Query().Get("q"),
	}
	if p.sessionID == "" || p.query == "" {
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "need session and q parameters")
		return p, false
	}
	var ok bool
	if p.offset, p.limit, ok = parsePageParams(w, r); !ok {
		return p, false
	}
	// Optional category facet: ?cat=sports,politics
	if cs := r.URL.Query().Get("cat"); cs != "" {
		var cats []collection.Category
		for _, name := range strings.Split(cs, ",") {
			cat, err := collection.ParseCategory(strings.TrimSpace(name))
			if err != nil {
				tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "%v", err)
				return p, false
			}
			cats = append(cats, cat)
		}
		p.filter = s.sys.CategoryFilter(cats...)
	}
	return p, true
}

// runSearch executes one adapted iteration and returns the requested
// [offset, offset+limit) page. Only the windowed hits are decorated
// with collection metadata, keeping per-request work proportional to
// the page, not the ranking depth.
func (s *Server) runSearch(ctx context.Context, p searchParams) (searchPage, error) {
	page := searchPage{
		SessionID: p.sessionID,
		Query:     p.query,
		Offset:    p.offset,
		Limit:     p.limit,
		Hits:      []searchHit{},
	}
	// The "session" span covers everything owned by the session layer:
	// lock wait, a store restore when the session is not resident, the
	// retrieval itself, and the write-through persist.
	sctx, sp := trace.StartSpan(ctx, "session")
	defer sp.End()
	err := s.mgr.WithContext(sctx, p.sessionID, func(sess *core.Session) error {
		res, err := sess.QueryFilteredContext(sctx, p.query, p.filter)
		if err != nil {
			return err
		}
		page.Step = sess.Step()
		page.Candidates = res.Candidates
		page.Total = len(res.Hits)
		if res.Partial {
			page.Partial = true
			s.partial.Add(1)
		}
		if p.offset >= len(res.Hits) {
			return nil
		}
		win := res.Hits[p.offset:]
		if len(win) > p.limit {
			win = win[:p.limit]
		}
		coll := s.sys.Collection()
		page.Hits = make([]searchHit, 0, len(win))
		for i, h := range win {
			hit := searchHit{Rank: p.offset + i, ShotID: h.ID, Score: h.Score}
			if shot := coll.Shot(collection.ShotID(h.ID)); shot != nil {
				hit.Seconds = shot.Duration.Seconds()
				if story := coll.Story(shot.StoryID); story != nil {
					hit.StoryID = string(story.ID)
					hit.Title = story.Title
					hit.Category = story.Category.String()
				}
			}
			page.Hits = append(page.Hits, hit)
		}
		return nil
	})
	return page, err
}

// writeSearchErr maps a search failure onto the envelope: a spent
// deadline budget — detected locally or reported by a lower tier — is
// the typed 504, everything else defers to the session-manager
// mapping.
func (s *Server) writeSearchErr(w http.ResponseWriter, err error, sessionID string) {
	if errors.Is(err, overload.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		s.gate.Exceeded(w, "deadline budget exhausted during retrieval")
		return
	}
	if errors.Is(err, context.Canceled) {
		tier.WriteError(w, tier.StatusClientClosed, tier.CodeCanceled, "request cancelled by caller")
		return
	}
	writeManagerErr(w, err, sessionID)
}

// handleSearch serves one paginated adapted-search iteration. Every
// call advances the session's adaptation step, so page fetches after
// new evidence may legitimately reorder.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	p, ok := s.parseSearchParams(w, r)
	if !ok {
		return
	}
	ctx, release, ok := s.gate.Enter(w, r, 0)
	if !ok {
		return
	}
	defer release()
	page, err := s.runSearch(ctx, p)
	if err != nil {
		s.writeSearchErr(w, err, p.sessionID)
		return
	}
	_, enc := trace.StartSpan(r.Context(), "encode")
	tier.WriteJSON(w, http.StatusOK, page)
	enc.End()
}

// eventsRequest feeds a batch of interaction events into a session.
type eventsRequest struct {
	SessionID string       `json:"session_id"`
	Events    []ilog.Event `json:"events"`
}

type eventsResponse struct {
	Observed int `json:"observed"`
}

// errBadEvent marks a client-side event validation failure inside the
// manager callback so the handler can map it to 400 instead of 500.
type errBadEvent struct{ err error }

func (e errBadEvent) Error() string { return e.err.Error() }

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var req eventsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "invalid JSON: %v", err)
		return
	}
	if req.SessionID == "" || len(req.Events) == 0 {
		tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "need session_id and events")
		return
	}
	err := s.mgr.With(req.SessionID, func(sess *core.Session) error {
		for i := range req.Events {
			e := req.Events[i]
			e.SessionID = req.SessionID // server-authoritative
			if err := sess.Observe(e); err != nil {
				return errBadEvent{fmt.Errorf("event %d: %w", i, err)}
			}
		}
		return nil
	})
	if err != nil {
		var bad errBadEvent
		if errors.As(err, &bad) {
			tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "%v", bad.err)
			return
		}
		writeManagerErr(w, err, req.SessionID)
		return
	}
	tier.WriteJSON(w, http.StatusOK, eventsResponse{Observed: len(req.Events)})
}

// shotResponse is the shot metadata a front-end renders.
type shotResponse struct {
	ShotID     string   `json:"shot_id"`
	VideoID    string   `json:"video_id"`
	StoryID    string   `json:"story_id"`
	Title      string   `json:"title"`
	Category   string   `json:"category"`
	Kind       string   `json:"kind"`
	Seconds    float64  `json:"seconds"`
	Transcript string   `json:"transcript"`
	Keyframes  int      `json:"keyframes"`
	Concepts   []string `json:"concepts,omitempty"`
}

func (s *Server) handleShot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	coll := s.sys.Collection()
	shot := coll.Shot(collection.ShotID(id))
	if shot == nil {
		tier.WriteError(w, http.StatusNotFound, tier.CodeNotFound, "unknown shot %q", id)
		return
	}
	resp := shotResponse{
		ShotID:     string(shot.ID),
		VideoID:    string(shot.VideoID),
		StoryID:    string(shot.StoryID),
		Kind:       shot.Kind.String(),
		Seconds:    shot.Duration.Seconds(),
		Transcript: shot.Transcript,
		Keyframes:  len(shot.Keyframes),
	}
	if story := coll.Story(shot.StoryID); story != nil {
		resp.Title = story.Title
		resp.Category = story.Category.String()
	}
	for _, cs := range shot.Concepts {
		resp.Concepts = append(resp.Concepts, string(cs.Concept))
	}
	tier.WriteJSON(w, http.StatusOK, resp)
}

// healthzResponse is the liveness body, with session-table stats for
// dashboards.
type healthzResponse struct {
	Status   string `json:"status"`
	Replica  string `json:"replica,omitempty"`
	Draining bool   `json:"draining,omitempty"`
	Sessions int    `json:"sessions"`
	Created  int64  `json:"sessions_created"`
	Evicted  int64  `json:"sessions_evicted"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.mgr.Stats()
	status := "ok"
	if s.mgr.Draining() {
		// Live, but asking the front tier to send sessions elsewhere.
		status = "draining"
	}
	tier.WriteJSON(w, http.StatusOK, healthzResponse{
		Status:   status,
		Replica:  s.replicaID,
		Draining: s.mgr.Draining(),
		Sessions: st.Live,
		Created:  st.Created,
		Evicted:  st.Evicted,
	})
}

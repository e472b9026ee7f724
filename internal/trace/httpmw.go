package trace

import (
	"log/slog"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/tier"
)

// HTTPConfig wires the request chain one tier's HTTP server mounts in
// front of its route table.
type HTTPConfig struct {
	// Tier stamps every span this process creates ("router", "serve",
	// "segment").
	Tier string
	// Collector receives finished traces (ring + slow-query log +
	// per-stage histograms). Required.
	Collector *Collector
	// Skip reports request paths that should not be traced (health
	// probes, metrics scrapes, the trace ring itself). Skipped requests
	// still get request-ID propagation, logging and panic recovery. Nil
	// traces everything.
	Skip func(path string) bool
	// Logger receives one line per request and every recovered panic
	// (nil discards).
	Logger *slog.Logger
}

// HTTPMiddleware returns the chain every tier serves behind: request
// ID → trace → request log → panic recovery.
//
//   - X-Request-Id: an inbound ID is honoured (never re-minted), so one
//     correlation ID survives router → serve → segment; absent, a fresh
//     ID is minted. The ID is always echoed on the response.
//   - X-IVR-Trace: every non-skipped request is traced into the
//     collector regardless; when the inbound header is RequestEcho ("1")
//     the finished span tree is additionally serialised into the same
//     response header, just before the response headers flush, so the
//     caller can graft this tier's server-side view under its own
//     client-side span.
//   - A handler panic is logged and, when no header has gone out yet,
//     answered with the typed 500 envelope instead of a torn connection.
//
// The request context carries the trace; handlers pick it up with
// StartSpan and it costs them one context lookup when the middleware is
// not mounted.
func HTTPMiddleware(cfg HTTPConfig) func(http.Handler) http.Handler {
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(RequestIDHeader)
			if id == "" {
				id = NewID()
			}
			w.Header().Set(RequestIDHeader, id)
			rec := metrics.NewStatusRecorder(w)
			var finished *Trace // nil on skipped paths; Finish is nil-safe
			if cfg.Skip == nil || !cfg.Skip(r.URL.Path) {
				t, root := New(id, cfg.Tier, r.Method+" "+r.URL.Path)
				finished = t
				r = r.WithContext(NewContext(r.Context(), t, root))
				if r.Header.Get(Header) == RequestEcho {
					// The tree must reach the wire in the response headers,
					// which flush before the handler's body write returns —
					// hence the pre-flush hook, encoding a stamped snapshot
					// of the still-open tree.
					rec.SetBeforeWrite(func() {
						rec.Header().Set(Header, EncodeSpan(t.SnapshotRoot()))
					})
				}
			}
			start := time.Now()
			defer func() {
				if p := recover(); p != nil {
					log.Error("panic serving request",
						"request_id", id, "method", r.Method, "path", r.URL.Path, "panic", p)
					// Once a header is out the status cannot change; the
					// connection is torn down by the write error instead.
					if rec.Status() == 0 {
						tier.WriteError(rec, http.StatusInternalServerError, tier.CodeInternal, "internal error")
					}
				} else if log.Enabled(r.Context(), slog.LevelInfo) {
					log.Info("request",
						"request_id", id, "method", r.Method, "path", r.URL.Path,
						"status", rec.Status(), "duration", time.Since(start))
				}
				// Handlers that never wrote still owe the caller its echo.
				rec.FireBeforeWrite()
				cfg.Collector.Finish(finished)
			}()
			next.ServeHTTP(rec, r)
		})
	}
}

// ServeHTTP serves the ring of recently finished traces, newest first:
// the debug/traces endpoint of every tier.
func (c *Collector) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	tier.WriteJSON(w, http.StatusOK, struct {
		Traces []*Entry `json:"traces"`
	}{c.Traces()})
}

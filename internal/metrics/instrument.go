package metrics

import (
	"net/http"
	"time"
)

// StatusRecorder captures the response status code for request
// telemetry and logging.
type StatusRecorder struct {
	http.ResponseWriter
	status      int
	beforeWrite func()
}

// NewStatusRecorder wraps w. If w already is a *StatusRecorder it is
// returned as-is, so middleware chains add at most one wrapper.
func NewStatusRecorder(w http.ResponseWriter) *StatusRecorder {
	if rec, ok := w.(*StatusRecorder); ok {
		return rec
	}
	return &StatusRecorder{ResponseWriter: w}
}

// Status returns the recorded status code (0 before any write).
func (r *StatusRecorder) Status() int { return r.status }

// SetBeforeWrite registers fn to run once, immediately before the
// response header is flushed (explicit WriteHeader or the implicit
// 200 on first Write) — the last moment a response header can still
// be set. The tracing middleware uses it to echo the in-flight span
// tree; anything needing a late header fits the same hook.
func (r *StatusRecorder) SetBeforeWrite(fn func()) { r.beforeWrite = fn }

// FireBeforeWrite runs a pending SetBeforeWrite hook now. Idempotent;
// middleware calls it after the handler returns to cover handlers
// that never wrote (net/http flushes their header afterwards, so a
// header set here still lands).
func (r *StatusRecorder) FireBeforeWrite() {
	if fn := r.beforeWrite; fn != nil {
		r.beforeWrite = nil
		fn()
	}
}

// WriteHeader implements http.ResponseWriter.
func (r *StatusRecorder) WriteHeader(code int) {
	r.FireBeforeWrite()
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter.
func (r *StatusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.FireBeforeWrite()
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

// Instrument wraps one route's handler with telemetry: the route's
// request counter (by status), its latency histogram, and the
// registry's in-flight gauge. The pattern is the telemetry label —
// callers MUST pass a fixed route pattern ("GET /api/v1/search",
// "* /rpc/"), never a request path, or per-route metrics explode on
// arbitrary request paths. It reuses an outer StatusRecorder when one
// is already installed so a middleware chain adds no extra wrapper.
func (g *Registry) Instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	rs := g.Route(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := NewStatusRecorder(w)
		done := g.IncInFlight()
		start := time.Now()
		finished := false
		defer func() {
			done()
			status := rec.status
			if status == 0 {
				if finished {
					// The handler returned without writing; net/http
					// will send 200 with an empty body.
					status = http.StatusOK
				} else {
					// Unwinding a panic; any recovery middleware turns
					// it into a 500 after this records.
					status = http.StatusInternalServerError
				}
			}
			rs.Observe(status, time.Since(start))
		}()
		h(rec, r)
		finished = true
	}
}

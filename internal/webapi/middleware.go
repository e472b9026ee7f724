package webapi

import (
	"net/http"
	"strings"

	"repro/internal/trace"
)

// RequestIDHeader carries the request correlation ID. Incoming values
// are honoured (so a front-end can stitch its own traces); otherwise
// the server mints one. The response always echoes it. Shared with the
// trace package: the same ID correlates the span trees of every tier a
// request crosses.
const RequestIDHeader = trace.RequestIDHeader

// ReplicaHeader names the replica that served a response. Set on
// every response when the server was given a replica ID, so clients
// and the front tier can observe session affinity and failover.
const ReplicaHeader = "X-IVR-Replica"

// skipTrace reports paths not worth a trace-ring slot: health probes,
// metrics scrapes, and the trace ring itself would otherwise drown the
// query traces operators come for.
func skipTrace(path string) bool {
	return path == "/api/v1/healthz" ||
		path == "/api/v1/metrics" ||
		path == "/metrics" ||
		strings.HasPrefix(path, "/api/v1/debug/")
}

// withReplicaHeader stamps the replica name on every response.
func withReplicaHeader(id string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ReplicaHeader, id)
		next.ServeHTTP(w, r)
	})
}

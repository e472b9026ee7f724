// Package tier is the chassis the three serving binaries (ivrroute,
// ivrserve, ivrsegment) share: the uniform error envelope and its
// code vocabulary, the common flag group, and the listen → signal →
// drain → shutdown loop. It imports only the standard library, so the
// trace middleware (trace.HTTPMiddleware) and the overload gate
// (overload.Gate) can answer in the same envelope without a cycle.
package tier

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Error codes in the envelope: the stable vocabulary of /api/v1 and
// /rpc/v1 alike.
const (
	CodeInvalid  = "invalid_request"
	CodeNotFound = "not_found"
	CodeInternal = "internal"
	CodeTooMany  = "too_many_sessions"
	CodeTooLarge = "body_too_large"
	CodeDraining = "draining"
	// CodeNoReplica marks a routed request no replica could take (502).
	CodeNoReplica = "no_replica"
	// CodeOverloaded marks a typed admission shed (429 + Retry-After):
	// the tier refused the work while refusing was still cheap. A twin
	// replica may still have capacity, so callers treat it as retryable.
	CodeOverloaded = "overloaded"
	// CodeDeadline marks a request whose X-IVR-Deadline budget was
	// spent — on arrival, queued at admission, or mid-work (504).
	// Retrying cannot help: the budget is gone everywhere.
	CodeDeadline = "deadline_exceeded"
	// CodeCanceled marks work abandoned because the caller hung up.
	// Nobody reads the body, but the status keeps client hangups out of
	// the 5xx ledger.
	CodeCanceled = "client_closed"
)

// StatusClientClosed is the nginx-convention 499 for a client that
// disconnected before the response was written.
const StatusClientClosed = 499

// ErrorEnvelope is the uniform error body: {"error":{"code","message"}}.
// Callers of a tier decode refusals into it.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the envelope's payload.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header cannot be reported; the values
	// the tiers send are all marshal-safe.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers status with the error envelope.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

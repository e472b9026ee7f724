package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/tier"
	"repro/internal/trace"
)

// Fault sentinels, matchable through errors.Is on any *BackendError.
var (
	// ErrBadResponse marks a backend reply the merge tier refused to
	// trust: wrong content type, undecodable body, a segment echo that
	// does not match the request, or fewer candidates than hits. Garbage
	// from a backend must become this error — never a silently wrong
	// ranking.
	ErrBadResponse = errors.New("distrib: malformed backend response")
	// ErrBackendStatus marks a non-200 RPC reply (the envelope's code
	// and message are included in the wrapping error text).
	ErrBackendStatus = errors.New("distrib: backend returned error status")
)

// statusError carries the HTTP status of a non-200 RPC reply alongside
// the ErrBackendStatus chain, so retry and deadline mapping can tell a
// shed, a spent budget and a server fault apart without parsing error
// text.
type statusError struct {
	status int
	code   string // envelope code when one parsed ("" otherwise)
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }

// Unwrap keeps errors.Is(err, ErrBackendStatus) matching.
func (e *statusError) Unwrap() error { return e.err }

// BackendError reports a failed RPC against one segment backend.
type BackendError struct {
	// Addr is the backend's base URL; Segment is the global segment
	// ordinal being scored (-1 for stats/topology calls).
	Addr    string
	Segment int
	Err     error
}

// Error implements error.
func (e *BackendError) Error() string {
	if e.Segment < 0 {
		return fmt.Sprintf("distrib: backend %s: %v", e.Addr, e.Err)
	}
	return fmt.Sprintf("distrib: backend %s segment %d: %v", e.Addr, e.Segment, e.Err)
}

// Unwrap exposes the underlying fault for errors.Is/As.
func (e *BackendError) Unwrap() error { return e.Err }

// Timeout reports whether the fault was a deadline (slow backend), as
// opposed to a refused connection or a protocol error.
func (e *BackendError) Timeout() bool {
	return os.IsTimeout(e.Err) || errors.Is(e.Err, context.DeadlineExceeded)
}

// backend is the RPC client for one segment server, with per-backend
// telemetry: request/error counters and a search-latency histogram
// (lock-free, shared with the /api/v1/metrics substrate). hc carries
// the per-query RPC deadline; statsHC has none, so the (much larger)
// startup stats download is bounded by the Connect context instead.
type backend struct {
	addr    string
	hc      *http.Client
	statsHC *http.Client
	// healthy is the routing signal: health probes and search outcomes
	// both feed it. An unhealthy replica is deprioritized — tried only
	// after every healthy twin — never excluded, so a topology whose
	// replicas are all marked down still gets served if any of them
	// actually answers.
	healthy  atomic.Bool
	requests atomic.Int64
	errors   atomic.Int64
	// hedges counts search RPCs sent to this backend as latency hedges
	// (the twin of a slow primary); failovers counts RPCs re-routed to
	// this backend after a sibling replica failed; probeFails counts
	// failed health probes.
	hedges     atomic.Int64
	failovers  atomic.Int64
	probeFails atomic.Int64
	latency    metrics.Histogram
	// brk is this backend's circuit breaker (nil = disabled; all
	// breaker methods are nil-safe). Set by Cluster.assemble.
	brk *breaker
}

func newBackend(addr string, hc, statsHC *http.Client) *backend {
	b := &backend{addr: strings.TrimRight(addr, "/"), hc: hc, statsHC: statsHC}
	b.healthy.Store(true)
	return b
}

// fail counts and wraps one fault. A context cancellation is the
// caller abandoning the RPC — a hedged request losing its race, or a
// client going away — not a backend fault, so it is wrapped but not
// counted against the backend.
func (b *backend) fail(segment int, err error) error {
	if !errors.Is(err, context.Canceled) {
		b.errors.Add(1)
	}
	return &BackendError{Addr: b.addr, Segment: segment, Err: err}
}

// maxResponseBody caps how much of a backend reply the merge tier
// will buffer (the stats dump of a full synth archive is ~0.5 MiB, so
// this is wide headroom; a response that actually hits the cap names
// it instead of masquerading as corruption).
const maxResponseBody = 64 << 20

// appendAll drains r into dst, reusing dst's capacity — the pooled
// replacement for io.ReadAll on the per-query paths.
func appendAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// readRPCBody buffers the reply into dst's storage, enforcing the
// response cap, and turns non-200 statuses into statusError (carrying
// the envelope's code/message when one parses).
func readRPCBody(resp *http.Response, dst []byte) ([]byte, error) {
	defer resp.Body.Close()
	body, err := appendAll(dst, io.LimitReader(resp.Body, maxResponseBody+1))
	if err != nil {
		return body, fmt.Errorf("read body: %w", err)
	}
	if len(body) > maxResponseBody {
		return body, fmt.Errorf("%w: body exceeds %d bytes", ErrBadResponse, maxResponseBody)
	}
	if resp.StatusCode != http.StatusOK {
		var env tier.ErrorEnvelope
		if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
			return body, &statusError{status: resp.StatusCode, code: env.Error.Code,
				err: fmt.Errorf("%w: %d %s: %s",
					ErrBackendStatus, resp.StatusCode, env.Error.Code, env.Error.Message)}
		}
		return body, &statusError{status: resp.StatusCode,
			err: fmt.Errorf("%w: status %d", ErrBackendStatus, resp.StatusCode)}
	}
	return body, nil
}

// decodeRPC validates status and content type, then decodes a JSON
// body (the stats/topology path; search goes through searchOnce).
func decodeRPC(resp *http.Response, v any) error {
	body, err := readRPCBody(resp, nil)
	if err != nil {
		return err
	}
	if mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type")); err != nil || mt != "application/json" {
		return fmt.Errorf("%w: content type %q", ErrBadResponse, resp.Header.Get("Content-Type"))
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	return nil
}

// stats fetches the backend's topology and statistics export.
func (b *backend) stats(ctx context.Context) (*StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+StatsPath, nil)
	if err != nil {
		return nil, b.fail(-1, err)
	}
	resp, err := b.statsHC.Do(req)
	if err != nil {
		return nil, b.fail(-1, err)
	}
	var out StatsResponse
	if err := decodeRPC(resp, &out); err != nil {
		return nil, b.fail(-1, err)
	}
	if out.Segments <= 0 || len(out.Hosted) == 0 {
		return nil, b.fail(-1, fmt.Errorf("%w: empty topology", ErrBadResponse))
	}
	return &out, nil
}

// search scores one segment remotely over IVRB frames. The response is
// trusted only after validation: IVRB content type, a frame that
// decodes, a matching segment echo, and a candidate count consistent
// with the hit list. Callers own resp.Hits and should hand the slice to
// recycleWireHits once converted.
func (b *backend) search(ctx context.Context, sreq SearchRequest) (*SearchResponse, error) {
	b.requests.Add(1)
	start := time.Now()
	out, err := b.searchOnce(ctx, &sreq)
	if err != nil {
		return nil, b.fail(sreq.Segment, err)
	}
	b.latency.Observe(time.Since(start))
	return out, nil
}

// searchOnce performs one search RPC. Request body buffers, their
// bytes.Reader wrapper, and the response read buffer all come from
// pools, so a steady-state scatter round allocates nothing for framing.
func (b *backend) searchOnce(ctx context.Context, sreq *SearchRequest) (*SearchResponse, error) {
	// Deadline propagation: re-mint the remaining budget as a relative
	// header on the outgoing RPC. A budget too small to round-trip is
	// answered here — typed — instead of shipping a request the far
	// side would only reject.
	deadline, haveDeadline := overload.RemainingFromContext(ctx)
	if haveDeadline && deadline < overload.MinForward {
		return nil, overload.ErrDeadlineExceeded
	}
	bodyBuf := getBuf()
	*bodyBuf = AppendSearchRequest((*bodyBuf)[:0], sreq)
	rd := readerPool.Get().(*bytes.Reader)
	rd.Reset(*bodyBuf)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.addr+SearchPath, rd)
	if err != nil {
		putBuf(bodyBuf)
		return nil, err
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	if haveDeadline {
		req.Header.Set(overload.DeadlineHeader, overload.FormatDeadline(deadline))
	}
	// Cross-process correlation: forward the query's request ID and ask
	// the backend to echo its server-side span tree, which is grafted
	// under the current (per-segment) span — client-observed RPC time
	// and server-observed scoring time then sit parent and child in one
	// tree, making network/queue time the visible gap between them.
	tr := trace.FromContext(ctx)
	if tr != nil {
		req.Header.Set(trace.RequestIDHeader, tr.ID)
		req.Header.Set(trace.Header, trace.RequestEcho)
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		// The transport may retain the body reader briefly on aborted
		// requests; let the GC reclaim this pair instead of recycling.
		return nil, err
	}
	rd.Reset(nil)
	readerPool.Put(rd)
	defer putBuf(bodyBuf)
	if tr != nil {
		if remote, derr := trace.DecodeSpan(resp.Header.Get(trace.Header)); derr == nil {
			trace.SpanFromContext(ctx).Graft(remote)
		}
	}
	respBuf := getBuf()
	defer putBuf(respBuf)
	body, err := readRPCBody(resp, (*respBuf)[:0])
	*respBuf = body[:0]
	if err != nil {
		return nil, err
	}
	if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt != ContentTypeBinary {
		return nil, fmt.Errorf("%w: content type %q", ErrBadResponse, resp.Header.Get("Content-Type"))
	}
	out := &SearchResponse{Hits: getWireHits()}
	err = decodeSearchResponse(body, out)
	switch {
	case err != nil:
		err = fmt.Errorf("%w: %v", ErrBadResponse, err)
	case out.Segment != sreq.Segment:
		err = fmt.Errorf("%w: scored segment %d, asked for %d", ErrBadResponse, out.Segment, sreq.Segment)
	case out.Candidates < len(out.Hits):
		err = fmt.Errorf("%w: %d candidates < %d hits", ErrBadResponse, out.Candidates, len(out.Hits))
	default:
		return out, nil
	}
	recycleWireHits(out.Hits)
	return nil, err
}

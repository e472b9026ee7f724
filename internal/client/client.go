// Package client is the typed Go SDK for the webapi /api/v1 surface.
// Every consumer of the retrieval service — CLI tools, examples,
// simulators, load generators — talks through a Client instead of
// hand-rolling HTTP, so the wire contract lives in exactly two places
// (webapi encodes it, client decodes it).
//
// Usage:
//
//	c, _ := client.New("http://localhost:8080",
//	        client.WithTimeout(5*time.Second),
//	        client.WithRetry(3, 200*time.Millisecond))
//	id, _ := c.CreateSession(ctx, client.CreateSessionRequest{UserID: "alice"})
//	page, _ := c.Search(ctx, client.SearchRequest{SessionID: id, Query: "cup final"})
//	_, _ = c.SendEvents(ctx, id, []ilog.Event{ /* clicks, plays */ })
//
// Server-side errors decode into *APIError carrying the envelope's
// code and message; IsNotFound distinguishes missing sessions/shots.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/ilog"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/retrieval"
	"repro/internal/trace"
)

// Client calls one webapi server. Safe for concurrent use.
type Client struct {
	baseURL    string
	httpClient *http.Client
	retries    int
	backoff    time.Duration
	userAgent  string
	budget     *overload.RetryBudget
}

// Option configures a Client.
type Option func(*options)

type options struct {
	httpClient  *http.Client
	timeout     time.Duration
	retries     int
	backoff     time.Duration
	userAgent   string
	retryRatio  float64
	retryBurst  int
	budgetIsSet bool
}

// WithHTTPClient substitutes the underlying *http.Client (default: a
// dedicated client with a 30s timeout).
func WithHTTPClient(hc *http.Client) Option {
	return func(o *options) { o.httpClient = hc }
}

// WithTimeout bounds each HTTP attempt (default 30s). Ignored when
// WithHTTPClient is given, regardless of option order.
func WithTimeout(d time.Duration) Option {
	return func(o *options) { o.timeout = d }
}

// WithRetry retries side-effect-free requests (session state, shot
// metadata, healthz) up to n extra times on network errors and 5xx
// responses, sleeping backoff, 2x backoff, ... between attempts.
// Search is never retried automatically — every search advances the
// session's adaptation step, so a blind replay would double-adapt.
// Default: no retries.
func WithRetry(n int, backoff time.Duration) Option {
	return func(o *options) {
		o.retries = n
		o.backoff = backoff
	}
}

// WithUserAgent sets the User-Agent header (default "repro-client/1").
func WithUserAgent(ua string) Option {
	return func(o *options) { o.userAgent = ua }
}

// WithRetryBudget bounds every class of automatic retry (5xx/network
// replays, drain waits, overload waits) to a token bucket: each
// primary request earns ratio tokens, each retry spends one, and the
// bucket caps at burst. A drowning server therefore sees retry traffic
// bounded at ~ratio of the primary rate instead of a synchronized
// retry storm. ratio <= 0 disables the bound. Default: ratio 0.1,
// burst 16.
func WithRetryBudget(ratio float64, burst int) Option {
	return func(o *options) {
		o.retryRatio = ratio
		o.retryBurst = burst
		o.budgetIsSet = true
	}
}

// New builds a client for a server base URL such as
// "http://localhost:8080" (any path suffix is stripped of one
// trailing slash; "/api/v1" is appended per call).
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: invalid base URL %q", baseURL)
	}
	o := options{userAgent: "repro-client/1"}
	for _, opt := range opts {
		opt(&o)
	}
	if o.retries < 0 {
		return nil, fmt.Errorf("client: negative retry count")
	}
	hc := o.httpClient
	if hc == nil {
		timeout := o.timeout
		if timeout == 0 {
			timeout = 30 * time.Second
		}
		hc = &http.Client{Timeout: timeout}
	}
	if !o.budgetIsSet {
		o.retryRatio, o.retryBurst = 0.1, 16
	}
	var budget *overload.RetryBudget // nil: unbounded
	if o.retryRatio > 0 && o.retryBurst > 0 {
		budget = overload.NewRetryBudget(o.retryRatio, o.retryBurst)
	}
	return &Client{
		baseURL:    strings.TrimSuffix(baseURL, "/"),
		httpClient: hc,
		retries:    o.retries,
		backoff:    o.backoff,
		userAgent:  o.userAgent,
		budget:     budget,
	}, nil
}

// BaseURL reports the server this client targets (no trailing slash).
func (c *Client) BaseURL() string { return c.baseURL }

// APIError is a non-2xx server response decoded from the error
// envelope {"error":{"code","message"}}.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the machine-readable envelope code ("not_found", ...).
	Code string
	// Message is the human-readable envelope message.
	Message string
	// RequestID echoes the X-Request-Id header for log correlation.
	RequestID string
	// RetryAfter is the server's Retry-After hint (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("api: %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// Envelope codes the SDK gives typed treatment.
const (
	// CodeDraining is the envelope code a replica answers with while it
	// hands its sessions off during graceful shutdown.
	CodeDraining = "draining"
	// CodeOverloaded is the typed admission shed: the tier is at its
	// concurrency limit and asks the client to back off (Retry-After).
	CodeOverloaded = "overloaded"
	// CodeDeadline marks a request whose deadline budget was spent
	// somewhere in the stack before a full answer existed.
	CodeDeadline = "deadline_exceeded"
)

// IsNotFound reports whether err is a 404 APIError (unknown session,
// shot, or route).
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound
}

// IsDraining reports whether err is a 503 from a draining replica.
func IsDraining(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable && ae.Code == CodeDraining
}

// IsOverloaded reports whether err is a typed 429 admission shed.
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests && ae.Code == CodeOverloaded
}

// IsDeadlineExceeded reports whether err is the server's typed 504:
// the request's deadline budget was spent before a full answer
// existed.
func IsDeadlineExceeded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == CodeDeadline
}

// CreateSessionRequest optionally declares a static user profile.
type CreateSessionRequest struct {
	UserID string `json:"user_id"`
	// Interests maps category names ("sports") to [0,1].
	Interests map[string]float64 `json:"interests,omitempty"`
}

// SessionState is a session's public state.
type SessionState struct {
	SessionID string             `json:"session_id"`
	Step      int                `json:"step"`
	Evidence  int                `json:"evidence"`
	SeenShots int                `json:"seen_shots"`
	LastQuery string             `json:"last_query"`
	Interests map[string]float64 `json:"interests"`
}

// Hit is one ranked result with display metadata.
type Hit struct {
	Rank     int     `json:"rank"`
	ShotID   string  `json:"shot_id"`
	Score    float64 `json:"score"`
	StoryID  string  `json:"story_id"`
	Title    string  `json:"title"`
	Category string  `json:"category"`
	Seconds  float64 `json:"seconds"`
}

// SearchRequest parameterises one adapted-search iteration.
type SearchRequest struct {
	SessionID string
	Query     string
	// Offset/Limit window the ranking (Limit 0 = server default).
	Offset int
	Limit  int
	// Categories facets results ("sports", "politics", ...).
	Categories []string
	// Trace asks the server to echo its span tree (X-IVR-Trace: 1);
	// the decoded tree lands in SearchPage.Trace. Against the router
	// the tree covers every tier the query crossed.
	Trace bool
}

// SearchPage is one page of an adapted ranking.
type SearchPage struct {
	SessionID  string `json:"session_id"`
	Query      string `json:"query"`
	Step       int    `json:"step"`
	Candidates int    `json:"candidates"`
	Total      int    `json:"total"`
	Offset     int    `json:"offset"`
	Limit      int    `json:"limit"`
	// Partial marks a degraded-mode page: the ranking covers only the
	// segments that answered before the system hit overload or partial
	// failure. Complete and correctly merged over that subset — but not
	// the full collection.
	Partial bool  `json:"partial"`
	Hits    []Hit `json:"hits"`
	// RequestID is the response's correlation ID (set from the
	// X-Request-Id header, not the body).
	RequestID string `json:"-"`
	// Trace is the server's span tree, present only when the request
	// set Trace and the server echoed one.
	Trace *trace.Span `json:"-"`
}

// Shot is the shot metadata a front-end renders.
type Shot struct {
	ShotID     string   `json:"shot_id"`
	VideoID    string   `json:"video_id"`
	StoryID    string   `json:"story_id"`
	Title      string   `json:"title"`
	Category   string   `json:"category"`
	Kind       string   `json:"kind"`
	Seconds    float64  `json:"seconds"`
	Transcript string   `json:"transcript"`
	Keyframes  int      `json:"keyframes"`
	Concepts   []string `json:"concepts"`
}

// Health is the liveness body with session-table stats.
type Health struct {
	Status   string `json:"status"`
	Replica  string `json:"replica"`
	Draining bool   `json:"draining"`
	Sessions int    `json:"sessions"`
	Created  int64  `json:"sessions_created"`
	Evicted  int64  `json:"sessions_evicted"`
}

// SessionEntry is one row of the live-session directory.
type SessionEntry struct {
	SessionID   string  `json:"session_id"`
	IdleSeconds float64 `json:"idle_seconds"`
	Step        int     `json:"step"`
	Evidence    int     `json:"evidence"`
	SeenShots   int     `json:"seen_shots"`
	LastQuery   string  `json:"last_query"`
}

// SessionList is one page of the live-session directory.
type SessionList struct {
	Total    int            `json:"total"`
	Offset   int            `json:"offset"`
	Limit    int            `json:"limit"`
	Sessions []SessionEntry `json:"sessions"`
}

// SessionCounters is the session-table section of the metrics body.
type SessionCounters struct {
	Live    int   `json:"live"`
	Created int64 `json:"created"`
	Evicted int64 `json:"evicted"`
	// Durability counters (zero without a session store).
	Restored      int64 `json:"restored"`
	Persisted     int64 `json:"persisted"`
	PersistErrors int64 `json:"persist_errors"`
}

// MetricsSnapshot is the /api/v1/metrics body: per-route request
// counters and latency quantiles (the metrics package owns that
// schema), session-table counters, and the retrieval-engine section
// (result-cache counters plus per-segment fan-out timing; the
// retrieval package owns that schema).
type MetricsSnapshot struct {
	metrics.Snapshot
	Replica  string             `json:"replica"`
	Draining bool               `json:"draining"`
	Sessions SessionCounters    `json:"sessions"`
	Search   retrieval.Snapshot `json:"search"`
}

// CreateSession starts a server-side session and returns its ID.
func (c *Client) CreateSession(ctx context.Context, req CreateSessionRequest) (string, error) {
	var resp struct {
		SessionID string `json:"session_id"`
	}
	if err := c.do(ctx, http.MethodPost, "/sessions", nil, req, &resp, retryNever); err != nil {
		return "", err
	}
	return resp.SessionID, nil
}

// Session fetches a session's state.
func (c *Client) Session(ctx context.Context, id string) (*SessionState, error) {
	var st SessionState
	if err := c.do(ctx, http.MethodGet, "/sessions/"+url.PathEscape(id), nil, nil, &st, retryOK); err != nil {
		return nil, err
	}
	return &st, nil
}

// DeleteSession ends a session.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/sessions/"+url.PathEscape(id), nil, nil, nil, retryNever)
}

// ListSessions fetches one page of the server's live-session
// directory, sorted by session ID (limit 0 = server default).
func (c *Client) ListSessions(ctx context.Context, offset, limit int) (*SessionList, error) {
	q := url.Values{}
	if offset > 0 {
		q.Set("offset", strconv.Itoa(offset))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var list SessionList
	if err := c.do(ctx, http.MethodGet, "/sessions", q, nil, &list, retryOK); err != nil {
		return nil, err
	}
	return &list, nil
}

// Metrics fetches the server's telemetry snapshot: per-route request
// counters, latency quantiles, and session-table stats.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	var m MetricsSnapshot
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, nil, &m, retryOK); err != nil {
		return nil, err
	}
	return &m, nil
}

// Search runs one adapted retrieval iteration and returns the
// requested page. Each call advances the session's adaptation step.
func (c *Client) Search(ctx context.Context, req SearchRequest) (*SearchPage, error) {
	if req.SessionID == "" || req.Query == "" {
		return nil, fmt.Errorf("client: search needs SessionID and Query")
	}
	q := url.Values{}
	q.Set("session", req.SessionID)
	q.Set("q", req.Query)
	if req.Offset > 0 {
		q.Set("offset", strconv.Itoa(req.Offset))
	}
	if req.Limit > 0 {
		q.Set("limit", strconv.Itoa(req.Limit))
	}
	if len(req.Categories) > 0 {
		q.Set("cat", strings.Join(req.Categories, ","))
	}
	var page SearchPage
	var opts []doOpt
	if req.Trace {
		opts = append(opts,
			withHeader(trace.Header, trace.RequestEcho),
			onResponse(func(resp *http.Response) {
				page.RequestID = resp.Header.Get(trace.RequestIDHeader)
				if sp, derr := trace.DecodeSpan(resp.Header.Get(trace.Header)); derr == nil {
					page.Trace = sp
				}
			}))
	}
	if err := c.do(ctx, http.MethodGet, "/search", q, nil, &page, retryNever, opts...); err != nil {
		return nil, err
	}
	return &page, nil
}

// SendEvents feeds a batch of interaction events into a session and
// returns how many the server observed. Event SessionID fields are
// overridden server-side by sessionID.
func (c *Client) SendEvents(ctx context.Context, sessionID string, events []ilog.Event) (int, error) {
	if sessionID == "" || len(events) == 0 {
		return 0, fmt.Errorf("client: SendEvents needs a session id and events")
	}
	body := struct {
		SessionID string       `json:"session_id"`
		Events    []ilog.Event `json:"events"`
	}{sessionID, events}
	var resp struct {
		Observed int `json:"observed"`
	}
	if err := c.do(ctx, http.MethodPost, "/events", nil, body, &resp, retryNever); err != nil {
		return 0, err
	}
	return resp.Observed, nil
}

// Shot fetches one shot's metadata.
func (c *Client) Shot(ctx context.Context, id string) (*Shot, error) {
	var sh Shot
	if err := c.do(ctx, http.MethodGet, "/shots/"+url.PathEscape(id), nil, nil, &sh, retryOK); err != nil {
		return nil, err
	}
	return &sh, nil
}

// Healthz checks liveness and returns session-table stats.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, &h, retryOK); err != nil {
		return nil, err
	}
	return &h, nil
}

// newRequest builds one /api/v1 request.
func (c *Client) newRequest(ctx context.Context, method, path string, query url.Values, body any) (*http.Request, error) {
	u := c.baseURL + "/api/v1" + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: encode body: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("User-Agent", c.userAgent)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// A caller-imposed context deadline becomes the wire deadline
	// budget: the stack decrements it hop by hop and stops working the
	// moment it is spent, instead of discovering a hung-up client after
	// finishing the query.
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			req.Header.Set(overload.DeadlineHeader, overload.FormatDeadline(rem))
		}
	}
	return req, nil
}

// Call-site retry classes. Only side-effect-free reads replay
// safely: a retried Search would advance the session's adaptation
// step again, and a retried DeleteSession whose first attempt
// succeeded would surface a spurious 404.
const (
	retryNever = false
	retryOK    = true
)

// Drain/overload retry budget: a draining or shedding replica rejects
// before touching any session state, so replaying is safe for every
// call — including the retryNever ones — and needs only its own small
// budget, not the caller's WithRetry configuration.
const (
	drainRetries     = 5
	defaultDrainWait = 200 * time.Millisecond
	maxDrainWait     = 5 * time.Second
)

// RetryBudget snapshots the client's retry token bucket.
func (c *Client) RetryBudget() overload.RetryBudgetStats { return c.budget.Stats() }

// sleepCtx waits d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// doOpt customises one call: extra request headers and a peek at the
// successful response (Search uses both for the trace echo).
type doOpt func(*doCfg)

type doCfg struct {
	headers    [][2]string
	onResponse func(*http.Response)
}

// withHeader adds one request header to every attempt.
func withHeader(k, v string) doOpt {
	return func(c *doCfg) { c.headers = append(c.headers, [2]string{k, v}) }
}

// onResponse runs fn on the 2xx response before the body decodes
// (response headers are valid inside fn; the body is not).
func onResponse(fn func(*http.Response)) doOpt {
	return func(c *doCfg) { c.onResponse = fn }
}

// do runs one API call, retrying when the call site marked it safe,
// decoding a 2xx body into out and everything else into *APIError.
// 503s from a draining replica and typed 429 admission sheds are
// always retried (honouring the server's Retry-After) up to
// drainRetries times: both are routing/backpressure conditions, not
// errors the virtual user should see. Every retry of any class spends
// one retry-budget token, so total replay traffic stays bounded
// relative to primary traffic even when the server is drowning.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body, out any, retry bool, opts ...doOpt) error {
	var dc doCfg
	for _, o := range opts {
		o(&dc)
	}
	attempts := 1
	if retry {
		attempts += c.retries
	}
	backoff := c.backoff
	drainBudget := drainRetries
	c.budget.Earn()
	var lastErr error
	for attempt := 0; attempt < attempts; {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The body is re-marshalled per attempt (only nil-body methods
		// retry, but keep this correct regardless).
		req, err := c.newRequest(ctx, method, path, query, body)
		if err != nil {
			return err
		}
		for _, h := range dc.headers {
			req.Header.Set(h[0], h[1])
		}
		resp, err := c.httpClient.Do(req)
		if err == nil && resp.StatusCode < 500 {
			defer resp.Body.Close()
			if resp.StatusCode < 200 || resp.StatusCode > 299 {
				return decodeAPIError(resp)
			}
			if dc.onResponse != nil {
				dc.onResponse(resp)
			}
			if out != nil {
				if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
					return fmt.Errorf("client: decode response: %w", err)
				}
			}
			return nil
		}
		if err != nil {
			lastErr = err
		} else {
			apiErr := decodeAPIError(resp)
			resp.Body.Close()
			lastErr = apiErr
			if (IsDraining(apiErr) || IsOverloaded(apiErr)) && drainBudget > 0 {
				// Drain/overload retries ride outside the attempt count and
				// wait what the server asked for, not the backoff schedule —
				// but still spend retry-budget tokens like everything else.
				if !c.budget.Take() {
					return lastErr
				}
				drainBudget--
				wait := apiErr.RetryAfter
				if wait <= 0 {
					wait = defaultDrainWait
				}
				if wait > maxDrainWait {
					wait = maxDrainWait
				}
				if err := sleepCtx(ctx, wait); err != nil {
					return err
				}
				continue
			}
		}
		attempt++
		if attempt >= attempts {
			break
		}
		if !c.budget.Take() {
			break
		}
		if backoff > 0 {
			if err := sleepCtx(ctx, backoff); err != nil {
				return err
			}
			backoff *= 2
		}
	}
	return lastErr
}

// decodeAPIError turns a non-2xx response into *APIError, tolerating
// bodies that are not the JSON envelope.
func decodeAPIError(resp *http.Response) *APIError {
	ae := &APIError{
		StatusCode: resp.StatusCode,
		Code:       "unknown",
		RequestID:  resp.Header.Get("X-Request-Id"),
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
	} else {
		ae.Message = strings.TrimSpace(string(data))
	}
	return ae
}

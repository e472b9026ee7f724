// Package overload is the single home of the cross-tier overload
// protocol: the X-IVR-Deadline budget header that propagates a
// request's remaining latency budget across router → ivrserve →
// ivrsegment, the context plumbing that lets scatter RPCs, hedges and
// the scoring kernel's per-block loop observe that budget without real
// timers (the Clock is injectable, so chaostest can expire a budget by
// advancing a fake clock instead of sleeping), the AIMD Admission gate,
// the RetryBudget token bucket, Gate — the one server-side entry
// every tier runs its gated work through — and Prober, the one health
// probe loop the router and the merge tier's segment cluster share.
//
// The header value is *relative*: integer milliseconds of budget left,
// re-minted (decremented) at every hop. Relative budgets are immune to
// clock skew between tiers — an absolute timestamp would shed or
// extend work whenever two machines disagree about the time, which is
// exactly the failure mode a deadline is meant to prevent. A value
// that looks like an absolute epoch timestamp is therefore rejected as
// malformed (it exceeds MaxBudget).
package overload

import (
	"context"
	"errors"
	"strconv"
	"time"
)

// DeadlineHeader carries the remaining request budget as integer
// milliseconds, decremented at every hop.
const DeadlineHeader = "X-IVR-Deadline"

// MaxBudget bounds a parseable budget. Anything larger is a bug — an
// absolute timestamp leaking into the relative header, or a caller
// that forgot the unit — and is rejected as malformed rather than
// silently honoured for sixteen minutes.
const MaxBudget = 10 * time.Minute

// MinForward is the smallest budget worth sending downstream: a hop
// with less than this left answers deadline_exceeded itself instead
// of forwarding a request that cannot round-trip.
const MinForward = time.Millisecond

// Typed rejection sentinels for ParseDeadline, and the runtime error
// a scoring path returns when the budget runs out mid-flight. All
// three map to typed envelopes — never a generic 500.
var (
	// ErrDeadlineMalformed rejects a header value that is not a
	// positive integer millisecond count within MaxBudget.
	ErrDeadlineMalformed = errors.New("overload: malformed deadline header")
	// ErrDeadlineExpired rejects a zero or negative budget: the
	// sender's deadline passed before the request arrived.
	ErrDeadlineExpired = errors.New("overload: deadline already expired")
	// ErrDeadlineExceeded reports a budget that ran out while the
	// request was being served.
	ErrDeadlineExceeded = errors.New("overload: deadline exceeded")
)

// ParseDeadline parses an X-IVR-Deadline value. An absent (empty)
// header means no deadline and returns (0, nil). Rejections are typed:
// non-integer syntax, leading/trailing junk, or a value beyond
// MaxBudget return ErrDeadlineMalformed; zero or negative budgets
// return ErrDeadlineExpired.
func ParseDeadline(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	// Canonical integers only: ParseInt tolerates a leading '+', which
	// no conforming minter emits.
	if v[0] == '+' {
		return 0, ErrDeadlineMalformed
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, ErrDeadlineMalformed
	}
	if ms <= 0 {
		return 0, ErrDeadlineExpired
	}
	// Bound before converting: a huge count would overflow the
	// nanosecond multiply and wrap negative.
	if ms > MaxBudget.Milliseconds() {
		return 0, ErrDeadlineMalformed
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// FormatDeadline renders a remaining budget as a header value
// (integer milliseconds, floored). Callers must check the budget
// against MinForward first; a non-positive duration renders as "0",
// which every parser on the other side rejects as expired.
func FormatDeadline(d time.Duration) string {
	ms := d.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	return strconv.FormatInt(ms, 10)
}

// Clock is the one time seam of the serving stack: deadline budgets,
// hedge timers, breaker cooldowns and probe loops all read it, so
// tests advance one manual clock instead of sleeping.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// Budget is a request's live latency budget, resolved once from the
// context and then polled cheaply (two loads and a clock read). All
// methods are nil-safe: a nil *Budget means "no deadline" and every
// check short-circuits false, which is what keeps the idle hot path
// free.
type Budget struct {
	expires time.Time
	clock   Clock
}

type budgetKey struct{}

// WithBudget derives a context carrying a latency budget of d. With a
// nil clock the real clock is used and the context gets a real
// deadline (so net/http cancels in-flight IO); with an injected clock
// cancellation is driven by clock.After, so tests fire it by advancing
// a fake clock — zero real sleeps.
func WithBudget(ctx context.Context, d time.Duration, clock Clock) (context.Context, context.CancelFunc) {
	if clock == nil {
		b := &Budget{expires: time.Now().Add(d), clock: RealClock{}}
		ctx = context.WithValue(ctx, budgetKey{}, b)
		return context.WithDeadline(ctx, b.expires)
	}
	b := &Budget{expires: clock.Now().Add(d), clock: clock}
	ctx = context.WithValue(ctx, budgetKey{}, b)
	ctx, cancel := context.WithCancel(ctx)
	// Arm the timer before returning: a test that advances the clock
	// immediately after WithBudget must still fire it.
	expired := clock.After(d)
	go func() {
		select {
		case <-expired:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// FromContext resolves the budget once; nil when the request carries
// none. Hot loops resolve once and poll the returned *Budget.
func FromContext(ctx context.Context) *Budget {
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// Expired reports whether the budget has run out. Nil-safe and free
// of allocation; the only cost is one clock read when a budget exists.
func (b *Budget) Expired() bool {
	if b == nil {
		return false
	}
	return !b.clock.Now().Before(b.expires)
}

// Remaining reports the budget left (negative once expired). A nil
// budget reports zero.
func (b *Budget) Remaining() time.Duration {
	if b == nil {
		return 0
	}
	return b.expires.Sub(b.clock.Now())
}

// RemainingFromContext reports the tightest known budget: the
// explicit overload budget when the context carries one, else the
// plain context deadline (how SDK per-request timeouts enter the
// propagation chain). ok is false when neither exists.
func RemainingFromContext(ctx context.Context) (time.Duration, bool) {
	if b := FromContext(ctx); b != nil {
		return b.Remaining(), true
	}
	if dl, ok := ctx.Deadline(); ok {
		return time.Until(dl), true
	}
	return 0, false
}

// RealClock is the production Clock.
type RealClock struct{}

func (RealClock) Now() time.Time                         { return time.Now() }
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

package distrib

import (
	"sync"
	"time"

	"repro/internal/overload"
)

// Breaker state names, exported on telemetry surfaces
// (BackendSummary.Breaker, ivr_breaker_state).
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half_open"
)

// breaker is one backend's circuit breaker. It composes with — rather
// than replaces — the health bit: the health bit is a routing
// *preference* (unhealthy replicas are tried last), the breaker is a
// launch *gate* with hysteresis. A replica that fails `threshold`
// consecutive search RPCs trips open; while open, the replica is
// skipped for primaries, hedges and failovers whenever any alternative
// replica is available (it is still used as a last resort, so an
// all-open group can never black-hole an ordinal that would answer).
// The breaker leaves open via exactly one probation trial RPC
// (half-open): either the cooldown elapsing or a successful health
// probe arms the trial, a trial success closes the breaker, a trial
// failure re-opens it and restarts the cooldown.
//
// All methods are nil-safe (a nil breaker is permanently closed), so
// bare backends constructed outside a Cluster keep working.
type breaker struct {
	mu        sync.Mutex
	clock     overload.Clock
	threshold int
	cooldown  time.Duration

	open     bool
	halfOpen bool
	trial    bool // a half-open probation RPC is in flight
	fails    int  // consecutive failures while closed
	openedAt time.Time
	trips    int64
}

func newBreaker(clock overload.Clock, threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		return nil // breaker disabled
	}
	if clock == nil {
		clock = overload.RealClock{}
	}
	return &breaker{clock: clock, threshold: threshold, cooldown: cooldown}
}

// allow reports whether a search RPC may be launched at this backend,
// claiming the single half-open trial slot when the breaker is in
// probation. An open breaker whose cooldown has elapsed transitions to
// half-open here, so recovery needs no background goroutine. Callers
// that get false may still use the backend as a last resort; the
// breaker observes the outcome either way.
func (b *breaker) allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if !b.halfOpen && b.cooldown > 0 && b.clock.Now().Sub(b.openedAt) >= b.cooldown {
		b.halfOpen = true
	}
	if b.halfOpen && !b.trial {
		b.trial = true
		return true
	}
	return false
}

// onSuccess records a decisive answer from the backend: the breaker
// closes and the failure streak resets. A 4xx or an out-of-budget
// refusal counts — the link demonstrably works.
func (b *breaker) onSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.open, b.halfOpen, b.trial = false, false, false
	b.fails = 0
	b.mu.Unlock()
}

// onFailure records a retryable fault. While closed it counts toward
// the trip threshold; a half-open trial failure re-opens the breaker
// and restarts the cooldown.
func (b *breaker) onFailure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open {
		// Probation failed (or a straggler RPC failed while open):
		// restart the cooldown from now.
		b.halfOpen, b.trial = false, false
		b.openedAt = b.clock.Now()
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.open = true
		b.openedAt = b.clock.Now()
		b.trips++
	}
}

// onCanceled releases a claimed trial slot without judging the
// backend: a cancelled RPC (hedge loser, caller gone) says nothing
// about replica health.
func (b *breaker) onCanceled() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.trial = false
	b.mu.Unlock()
}

// onProbeSuccess arms probation after a successful health probe: an
// open breaker moves to half-open without waiting out the cooldown, so
// a recovered replica re-enters rotation one probe interval after it
// comes back, not one cooldown later.
func (b *breaker) onProbeSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.open {
		b.halfOpen = true
	}
	b.mu.Unlock()
}

// state reports the breaker's current state name.
func (b *breaker) state() string {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.open:
		return BreakerClosed
	case b.halfOpen:
		return BreakerHalfOpen
	default:
		return BreakerOpen
	}
}

// tripCount reports how many times the breaker has tripped open.
func (b *breaker) tripCount() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

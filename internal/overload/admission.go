package overload

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrShed is returned by Admission.Acquire when the concurrency limit
// is reached and the bounded wait queue is full: the tier refuses the
// work *now*, while it is still cheap, instead of queueing unboundedly
// and timing everything out later. Callers translate it into a typed
// 429 + Retry-After envelope.
var ErrShed = errors.New("overload: admission limit reached, request shed")

// AdmissionConfig sizes an Admission gate.
type AdmissionConfig struct {
	// InitialLimit is the starting concurrency limit (default 64).
	InitialLimit int
	// MinLimit/MaxLimit clamp the adaptive limit (defaults 4 and 4096).
	MinLimit int
	MaxLimit int
	// MaxQueue bounds how many callers may wait for a slot; one past
	// the queue is shed immediately (default 0: shed at the limit).
	MaxQueue int
	// Target is the latency the AIMD controller steers toward:
	// releases slower than Target shrink the limit multiplicatively,
	// faster ones grow it additively. Zero disables adaptation (the
	// limit stays at InitialLimit).
	Target time.Duration
	// Now is the clock (nil = time.Now) — injected by tests so limit
	// adaptation is deterministic.
	Now func() time.Time
}

// Admission is an adaptive concurrency gate: at most `limit` requests
// in flight, a small bounded FIFO queue absorbing bursts, and an AIMD
// controller moving the limit with measured latency. Safe for
// concurrent use; the uncontended Acquire/Release pair is one mutex
// round trip each, nothing on the scoring path.
type Admission struct {
	cfg AdmissionConfig

	mu       sync.Mutex
	limit    float64
	inflight int
	waiters  []chan struct{}
	lastCut  time.Time

	admitted int64
	queued   int64
	shed     int64
	aborted  int64 // queue waits abandoned (caller context ended)
}

// NewAdmission builds a gate from cfg, applying defaults.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.InitialLimit <= 0 {
		cfg.InitialLimit = 64
	}
	if cfg.MinLimit <= 0 {
		cfg.MinLimit = 4
	}
	if cfg.MaxLimit <= 0 {
		cfg.MaxLimit = 4096
	}
	if cfg.MinLimit > cfg.MaxLimit {
		cfg.MinLimit = cfg.MaxLimit
	}
	if cfg.InitialLimit < cfg.MinLimit {
		cfg.InitialLimit = cfg.MinLimit
	}
	if cfg.InitialLimit > cfg.MaxLimit {
		cfg.InitialLimit = cfg.MaxLimit
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Admission{cfg: cfg, limit: float64(cfg.InitialLimit)}
}

// Ticket is one admitted request; Release must be called exactly once.
type Ticket struct {
	a     *Admission
	start time.Time
}

// Acquire admits the caller, queues it (bounded) when the tier is at
// its limit, or sheds it with ErrShed. A queued caller whose context
// ends first gets the context error back and never occupies a slot.
func (a *Admission) Acquire(ctx context.Context) (*Ticket, error) {
	a.mu.Lock()
	if a.inflight < int(a.limit) {
		a.inflight++
		a.admitted++
		start := a.cfg.Now()
		a.mu.Unlock()
		return &Ticket{a: a, start: start}, nil
	}
	if len(a.waiters) >= a.cfg.MaxQueue {
		a.shed++
		a.mu.Unlock()
		return nil, ErrShed
	}
	grant := make(chan struct{}, 1)
	a.waiters = append(a.waiters, grant)
	a.queued++
	a.mu.Unlock()

	select {
	case <-grant:
		a.mu.Lock()
		start := a.cfg.Now()
		a.mu.Unlock()
		return &Ticket{a: a, start: start}, nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, w := range a.waiters {
			if w == grant {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.aborted++
				a.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		a.mu.Unlock()
		// The grant raced the cancellation: the slot is ours, give it
		// back so it is not leaked.
		<-grant
		a.release(0, false)
		return nil, ctx.Err()
	}
}

// Release returns the slot and feeds the measured latency to the AIMD
// controller: a release slower than Target shrinks the limit, an
// on-target one grows it.
func (t *Ticket) Release() {
	t.a.release(t.a.cfg.Now().Sub(t.start), true)
}

func (a *Admission) release(latency time.Duration, measured bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if measured && a.cfg.Target > 0 {
		if latency > a.cfg.Target {
			// Multiplicative decrease, at most once per Target window so
			// one slow burst does not collapse the limit to the floor.
			now := a.cfg.Now()
			if now.Sub(a.lastCut) >= a.cfg.Target {
				a.lastCut = now
				a.limit *= 0.9
				if a.limit < float64(a.cfg.MinLimit) {
					a.limit = float64(a.cfg.MinLimit)
				}
			}
		} else {
			// Additive increase: one full slot per limit's worth of
			// on-target releases.
			a.limit += 1 / a.limit
			if a.limit > float64(a.cfg.MaxLimit) {
				a.limit = float64(a.cfg.MaxLimit)
			}
		}
	}
	a.inflight--
	// Hand freed capacity to the queue head (FIFO).
	for a.inflight < int(a.limit) && len(a.waiters) > 0 {
		grant := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.inflight++
		a.admitted++
		grant <- struct{}{}
	}
}

// AdmissionStats is a point-in-time snapshot for telemetry surfaces.
type AdmissionStats struct {
	// Limit is the current adaptive concurrency limit.
	Limit int `json:"limit"`
	// InFlight is the number of admitted requests not yet released.
	InFlight int `json:"in_flight"`
	// Queued is the current wait-queue depth.
	Queued int `json:"queued"`
	// Admitted counts requests that got a slot (immediately or after
	// queueing); Shed counts typed rejections; Aborted counts queue
	// waits abandoned by their caller.
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	Aborted  int64 `json:"aborted"`
}

// Stats snapshots the gate.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		Limit:    int(a.limit),
		InFlight: a.inflight,
		Queued:   len(a.waiters),
		Admitted: a.admitted,
		Shed:     a.shed,
		Aborted:  a.aborted,
	}
}

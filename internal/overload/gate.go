package overload

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/tier"
)

// Gate is one tier's server side of the overload protocol: the
// X-IVR-Deadline arrival check, the admission gate, the typed
// refusals both produce, and the counters that report them. Every
// tier enters its gated work through Enter, so a spent budget or a
// shed reads the same from router, serve and segment.
type Gate struct {
	tier  string
	adm   *Admission // nil: deadline protocol only, nothing is shed
	clock Clock
	// exceeded counts requests answered deadline_exceeded — on arrival,
	// in the admission queue, or (via Exceeded) mid-work.
	exceeded atomic.Int64
}

// NewGate builds the gate of the named tier ("serve", "segment",
// "router"). adm sizes its admission gate; the zero config yields an
// effectively transparent gate (limit 4096) whose ivr_admission_*
// families are still scrapeable, and nil — the router, which proxies
// rather than works — no admission gate at all. clock drives budget
// expiry (nil = real time).
func NewGate(tier string, adm *AdmissionConfig, clock Clock) *Gate {
	g := &Gate{tier: tier, clock: clock}
	if adm != nil {
		cfg := *adm
		if cfg.InitialLimit <= 0 {
			cfg.InitialLimit = 4096
		}
		g.adm = NewAdmission(cfg)
	}
	return g
}

// AdmissionFromFlags resolves the -admission-limit/-queue/-target flag
// values: no limit leaves the gate transparent whatever the other two
// say, and an unset queue is half the limit.
func AdmissionFromFlags(limit, queue int, target time.Duration) AdmissionConfig {
	if limit <= 0 {
		return AdmissionConfig{}
	}
	if queue <= 0 {
		queue = limit / 2
	}
	return AdmissionConfig{InitialLimit: limit, MaxQueue: queue, Target: target}
}

// Enter applies the protocol to one request: it parses the
// X-IVR-Deadline budget header (malformed → 400, already spent → 504),
// falls back to mint when the request carries none (0 = no budget),
// binds the budget into the request context, and claims an admission
// ticket (limit reached with a full queue → typed 429 + Retry-After;
// budget spent while queued → 504). When ok is false the refusal has
// been written; otherwise the caller owns release.
func (g *Gate) Enter(w http.ResponseWriter, r *http.Request, mint time.Duration) (ctx context.Context, release func(), ok bool) {
	budget, err := ParseDeadline(r.Header.Get(DeadlineHeader))
	if err != nil {
		if errors.Is(err, ErrDeadlineExpired) {
			g.Exceeded(w, "deadline budget spent before arrival")
		} else {
			tier.WriteError(w, http.StatusBadRequest, tier.CodeInvalid, "bad %s header: %v", DeadlineHeader, err)
		}
		return nil, nil, false
	}
	if budget == 0 {
		budget = mint
	}
	ctx = r.Context()
	release = func() {}
	if budget > 0 {
		ctx, release = WithBudget(ctx, budget, g.clock)
	}
	if g.adm == nil {
		return ctx, release, true
	}
	ticket, err := g.adm.Acquire(ctx)
	if err != nil {
		release()
		if errors.Is(err, ErrShed) {
			w.Header().Set("Retry-After", "1")
			tier.WriteError(w, http.StatusTooManyRequests, tier.CodeOverloaded, "%s tier at concurrency limit", g.tier)
		} else {
			// The budget (or the caller) expired while queued.
			g.Exceeded(w, "deadline budget spent in admission queue")
		}
		return nil, nil, false
	}
	cancel := release
	return ctx, func() { ticket.Release(); cancel() }, true
}

// Exceeded answers the typed 504 for a budget that ran out and counts
// it; tiers call it for budgets spent past the gate (mid-retrieval,
// mid-scoring, between forwards).
func (g *Gate) Exceeded(w http.ResponseWriter, message string) {
	g.exceeded.Add(1)
	tier.WriteError(w, http.StatusGatewayTimeout, tier.CodeDeadline, "%s", message)
}

// DeadlineExceeded reports how many requests were answered
// deadline_exceeded.
func (g *Gate) DeadlineExceeded() int64 { return g.exceeded.Load() }

// Admission exposes the admission gate (nil on a tier without one).
func (g *Gate) Admission() *Admission { return g.adm }

// WritePrometheus appends the gate's families to a scrape: the
// ivr_admission_* set of a tier that has a gate (present even at zero,
// so dashboards and the CI smoke can assert on them unconditionally)
// and ivr_deadline_exceeded_total.
func (g *Gate) WritePrometheus(p *metrics.PromWriter) {
	if g.adm != nil {
		s := g.adm.Stats()
		p.Family("ivr_admission_limit", "gauge")
		p.Sample("ivr_admission_limit", float64(s.Limit))
		p.Family("ivr_admission_in_flight", "gauge")
		p.Sample("ivr_admission_in_flight", float64(s.InFlight))
		p.Family("ivr_admission_queue_depth", "gauge")
		p.Sample("ivr_admission_queue_depth", float64(s.Queued))
		p.Family("ivr_admission_admitted_total", "counter")
		p.Sample("ivr_admission_admitted_total", float64(s.Admitted))
		p.Family("ivr_admission_shed_total", "counter")
		p.Sample("ivr_admission_shed_total", float64(s.Shed))
		p.Family("ivr_admission_aborted_total", "counter")
		p.Sample("ivr_admission_aborted_total", float64(s.Aborted))
	}
	p.Family("ivr_deadline_exceeded_total", "counter")
	p.Sample("ivr_deadline_exceeded_total", float64(g.DeadlineExceeded()))
}

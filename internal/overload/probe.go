package overload

import (
	"context"
	"sync"
	"time"
)

// ProbeConfig parameterises a Prober. The router and the merge tier's
// segment cluster differ only in these values: what they probe, how
// they react to a verdict, and the timings.
type ProbeConfig[T comparable] struct {
	// Targets lists what one pass probes. It is read at the start of
	// every pass, so the set may change between passes (a topology
	// reload); the counts of targets no longer listed are dropped.
	Targets func() []T
	// Check probes one target; nil means healthy.
	Check func(ctx context.Context, t T) error
	// Verdict runs after every successful check (err nil, fails 0) and
	// after every failed one from the Threshold-th consecutive failure
	// on (fails is the count).
	Verdict func(t T, err error, fails int)
	// Threshold is the consecutive failures before a failed check is a
	// verdict.
	Threshold int
	// Clock drives the loop (nil = real time), which only ever waits
	// on Clock.After and never reads Clock.Now.
	Clock Clock
	// First is the wait before the loop's first pass (0 = at once).
	First time.Duration
	// Interval is the wait between passes; <= 0 runs no loop, so
	// passes happen only through ProbeNow.
	Interval time.Duration
	// Timeout bounds one check (<= 0 = only the pass context).
	Timeout time.Duration
}

// Prober is the one health-probe loop of the serving stack: on every
// tick of the injected clock it checks all targets concurrently,
// counts consecutive failures per target and hands each verdict back
// to the caller. Close stops it.
type Prober[T comparable] struct {
	ProbeConfig[T]
	mu    sync.Mutex // serialises passes; guards fails
	fails map[T]int
	ctx   context.Context // cancelled by Close: in-flight checks abort
	stop  context.CancelFunc
	done  chan struct{} // closed once the loop has exited
}

// NewProber returns a prober, its loop started when cfg.Interval > 0.
func NewProber[T comparable](cfg ProbeConfig[T]) *Prober[T] {
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	p := &Prober[T]{ProbeConfig: cfg, fails: map[T]int{}, done: make(chan struct{})}
	p.ctx, p.stop = context.WithCancel(context.Background())
	if cfg.Interval > 0 {
		go p.run()
	} else {
		close(p.done)
	}
	return p
}

func (p *Prober[T]) run() {
	defer close(p.done)
	for wait := p.First; ; wait = p.Interval {
		if wait > 0 {
			select {
			case <-p.ctx.Done():
				return
			case <-p.Clock.After(wait):
			}
		}
		p.ProbeNow(p.ctx)
	}
}

// ProbeNow runs one pass: every target is checked concurrently, and
// the call returns once every verdict has been handed out. A check
// that fails because ctx itself ended (Close) is no verdict and leaves
// its target's count as it was.
func (p *Prober[T]) ProbeNow(ctx context.Context) {
	p.mu.Lock()
	defer p.mu.Unlock()
	targets := p.Targets()
	counts := make([]int, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[i] = p.probe(ctx, t)
		}()
	}
	wg.Wait()
	clear(p.fails)
	for i, t := range targets {
		p.fails[t] = counts[i]
	}
}

// probe checks one target and returns its consecutive-failure count.
// It only reads fails; the pass rewrites the map once all are back.
func (p *Prober[T]) probe(ctx context.Context, t T) int {
	cctx := ctx
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	err := p.Check(cctx, t)
	n := p.fails[t] + 1
	if err == nil {
		n = 0
	} else if ctx.Err() != nil {
		return n - 1
	}
	if err == nil || n >= p.Threshold {
		p.Verdict(t, err, n)
	}
	return n
}

// Close stops the loop, aborting any pass in flight, and returns once
// it has exited. Idempotent.
func (p *Prober[T]) Close() {
	p.stop()
	<-p.done
}

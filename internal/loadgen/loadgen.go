// Package loadgen drives simulated user studies against a remote
// retrieval server over HTTP — the scale test of the /api/v1 contract.
// It runs internal/simulation's session loop (simulation.RunLoop) over
// the typed internal/client SDK: a worker pool of N virtual users,
// each creating a session, running the loop's search → send-events
// (→ shot-view) iterations through an SDK Transport, and deleting it.
//
// Two pacing disciplines are supported:
//
//   - closed-loop (the default): each virtual user starts its next
//     session as soon as the previous one finishes, with optional
//     think-time pauses between query iterations — a fixed-concurrency
//     saturation test;
//   - open-loop: sessions arrive at a fixed rate regardless of how
//     fast the server answers; arrivals that find every worker busy
//     and the backlog full are counted as dropped rather than
//     silently degrading into closed-loop pacing.
//
// Telemetry is collected lock-free: every worker owns a histogram
// shard per endpoint (internal/metrics.Histogram), merged into one
// Report after the run, so a thousand workers never contend on a
// collector mutex. The Report's per-endpoint request totals are
// directly comparable to the server's /api/v1/metrics counters.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/ilog"
	"repro/internal/simulation"
	"repro/internal/ui"
)

// Endpoint labels used in reports; chosen to mirror the server's
// route table one-to-one.
const (
	EndpointCreateSession = "create_session"
	EndpointSearch        = "search"
	EndpointEvents        = "events"
	EndpointShot          = "shot"
	EndpointDeleteSession = "delete_session"
)

// Pacing selects the arrival discipline of the load.
type Pacing string

const (
	// PacingClosed: each worker starts a new session as soon as its
	// previous one completes (think time applies within sessions).
	PacingClosed Pacing = "closed"
	// PacingOpen: sessions arrive at Config.Rate per second,
	// independent of completions.
	PacingOpen Pacing = "open"
)

// Query is one entry of the workload's query pool.
type Query struct {
	// Text is the short query issued first.
	Text string
	// Verbose optionally provides the reformulation target.
	Verbose string
	// TopicID stamps events (-1 when the query has no evaluation
	// topic).
	TopicID int
	// Relevant optionally carries ground-truth relevance by shot ID;
	// when nil, the virtual user samples its relevance belief at
	// Config.RelevanceRate.
	Relevant map[string]bool
}

// Config parameterises a load run.
type Config struct {
	// Client is the SDK handle to the target server. Required unless
	// Clients is set.
	Client *client.Client
	// Clients optionally spreads virtual users round-robin over
	// several equivalent endpoints — e.g. the replicas of a front tier
	// driven directly, or several ivrroute instances. When set, Client
	// may be nil; when both are set, Client is ignored.
	Clients []*client.Client
	// Users is the number of concurrent virtual users (default 1).
	Users int
	// Sessions is the total number of sessions to run (0 = unbounded;
	// bound the run with Duration or the context instead).
	Sessions int
	// Iterations is the number of query iterations per session
	// (default 3).
	Iterations int
	// Pacing selects the arrival discipline (default PacingClosed).
	Pacing Pacing
	// Rate is the open-loop session arrival rate per second (required
	// when Pacing is PacingOpen).
	Rate float64
	// ThinkTime is the mean pause between query iterations (0 = no
	// pauses; jittered ±50% per pause).
	ThinkTime time.Duration
	// RampUp staggers worker starts across this window, so a run
	// doesn't hit the server with Users simultaneous session creates.
	RampUp time.Duration
	// Duration bounds the run's wall clock (0 = until Sessions are
	// done or the context is cancelled).
	Duration time.Duration
	// PageLimit is the search page size requested per iteration
	// (default 20).
	PageLimit int
	// Seed fixes the behaviour streams (per-worker streams derive
	// from it).
	Seed int64
	// Stereotypes are assigned round-robin to virtual users (default:
	// the built-in population).
	Stereotypes []simulation.Stereotype
	// Iface is the interaction-environment model (default
	// ui.Desktop()).
	Iface *ui.Interface
	// Queries is the workload's query pool. Required.
	Queries []Query
	// RelevanceRate is the probability a result is believed relevant
	// when its query carries no ground truth (default 0.2).
	RelevanceRate float64
	// FetchShots also fetches GET /shots/{id} for every clicked
	// result, as a front-end rendering a player would.
	FetchShots bool
	// TraceSample asks the server to echo its span tree for every Nth
	// search across the whole pool (0 = off). Sampled trees land in
	// Report.TraceSamples, capped at maxTraceSamples, so a long run
	// keeps representative traces without unbounded memory.
	TraceSample int
}

// Driver runs one configured workload. Create with New; a Driver is
// single-use per Run call but Run may be called again for a fresh
// measurement.
type Driver struct {
	cfg Config
}

// New validates a config and applies defaults.
func New(cfg Config) (*Driver, error) {
	if len(cfg.Clients) == 0 {
		if cfg.Client == nil {
			return nil, fmt.Errorf("loadgen: nil client")
		}
		cfg.Clients = []*client.Client{cfg.Client}
	}
	for _, c := range cfg.Clients {
		if c == nil {
			return nil, fmt.Errorf("loadgen: nil client in Clients")
		}
	}
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("loadgen: empty query pool")
	}
	if cfg.Users <= 0 {
		cfg.Users = 1
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 3
	}
	if cfg.PageLimit <= 0 {
		cfg.PageLimit = 20
	}
	if cfg.Pacing == "" {
		cfg.Pacing = PacingClosed
	}
	switch cfg.Pacing {
	case PacingClosed:
	case PacingOpen:
		if cfg.Rate <= 0 {
			return nil, fmt.Errorf("loadgen: open-loop pacing needs a positive Rate")
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown pacing %q", cfg.Pacing)
	}
	if cfg.Sessions < 0 || cfg.ThinkTime < 0 || cfg.RampUp < 0 || cfg.Duration < 0 {
		return nil, fmt.Errorf("loadgen: negative config value")
	}
	if cfg.Sessions == 0 && cfg.Duration == 0 {
		return nil, fmt.Errorf("loadgen: unbounded run; set Sessions or Duration")
	}
	if len(cfg.Stereotypes) == 0 {
		cfg.Stereotypes = simulation.Stereotypes()
	}
	for _, st := range cfg.Stereotypes {
		if err := st.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Iface == nil {
		cfg.Iface = ui.Desktop()
	}
	if err := cfg.Iface.Validate(); err != nil {
		return nil, err
	}
	if cfg.RelevanceRate == 0 {
		cfg.RelevanceRate = 0.2
	}
	if cfg.RelevanceRate < 0 || cfg.RelevanceRate > 1 {
		return nil, fmt.Errorf("loadgen: RelevanceRate %v outside [0,1]", cfg.RelevanceRate)
	}
	if cfg.TraceSample < 0 {
		return nil, fmt.Errorf("loadgen: negative TraceSample")
	}
	return &Driver{cfg: cfg}, nil
}

// worker is one virtual user: its own behaviour PRNG and telemetry
// shard — nothing shared on the hot path.
type worker struct {
	id  int
	cfg *Config
	// c is this worker's endpoint (Config.Clients round-robin by
	// worker, so one virtual user keeps talking to one place).
	c   *client.Client
	rng *rand.Rand
	col *shardCollector
	// traceSeq is the pool-wide search counter backing TraceSample:
	// shared across workers so "every Nth search" means the Nth of the
	// whole run, not of one virtual user. Nil when sampling is off.
	traceSeq *atomic.Int64
}

// traceSampled claims the next pool-wide search ordinal and reports
// whether this search should carry the trace-echo request.
func (w *worker) traceSampled() bool {
	if w.traceSeq == nil {
		return false
	}
	return (w.traceSeq.Add(1)-1)%int64(w.cfg.TraceSample) == 0
}

// Run executes the workload until the session budget, Duration, or
// ctx expires, and returns the merged report. Individual session
// failures (server errors, timeouts) are recorded in the report, not
// returned; Run errors only on setup problems or full cancellation
// before any work.
func (d *Driver) Run(ctx context.Context) (*Report, error) {
	cfg := d.cfg
	shards, elapsed, dropped := runPool(ctx, &cfg, func(ctx context.Context, w *worker, _ int) {
		w.runSession(ctx)
	})
	rep := buildReport(&cfg, shards, elapsed)
	rep.DroppedArrivals = dropped
	return rep, nil
}

// runPool runs the worker pool with the configured pacing and
// ramp-up, returning the per-worker telemetry shards, the measured
// wall clock, and the open-loop dropped-arrival count.
func runPool(ctx context.Context, cfg *Config, work func(context.Context, *worker, int)) ([]*shardCollector, time.Duration, int64) {
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	workers := make([]*worker, cfg.Users)
	shards := make([]*shardCollector, cfg.Users)
	var traceSeq *atomic.Int64
	if cfg.TraceSample > 0 {
		traceSeq = new(atomic.Int64)
	}
	for i := range workers {
		shards[i] = newShardCollector()
		workers[i] = &worker{
			id:       i,
			cfg:      cfg,
			c:        cfg.Clients[i%len(cfg.Clients)],
			rng:      rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			col:      shards[i],
			traceSeq: traceSeq,
		}
	}

	// Session sequence dispensing: closed-loop claims from a counter,
	// open-loop receives timed arrivals (dropping when the backlog is
	// full, so the arrival process stays open).
	var next atomic.Int64
	var droppedN atomic.Int64
	var tokens chan int
	if cfg.Pacing == PacingOpen {
		tokens = make(chan int, cfg.Users*8)
		go func() {
			defer close(tokens)
			interval := time.Duration(float64(time.Second) / cfg.Rate)
			if interval <= 0 {
				interval = time.Microsecond
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			seq := 0
			for cfg.Sessions == 0 || seq < cfg.Sessions {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					select {
					case tokens <- seq:
					default:
						droppedN.Add(1)
					}
					seq++
				}
			}
		}()
	}
	claim := func() (int, bool) {
		if tokens != nil {
			select {
			case <-ctx.Done():
				return 0, false
			case seq, ok := <-tokens:
				return seq, ok
			}
		}
		seq := int(next.Add(1) - 1)
		if cfg.Sessions > 0 && seq >= cfg.Sessions {
			return 0, false
		}
		return seq, ctx.Err() == nil
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			// Ramp-up: stagger worker starts across the window.
			if cfg.RampUp > 0 && cfg.Users > 1 {
				delay := cfg.RampUp * time.Duration(w.id) / time.Duration(cfg.Users)
				select {
				case <-ctx.Done():
					return
				case <-time.After(delay):
				}
			}
			for {
				seq, ok := claim()
				if !ok {
					return
				}
				work(ctx, w, seq)
			}
		}(w)
	}
	wg.Wait()
	return shards, time.Since(start), droppedN.Load()
}

// runSession drives one generic-traffic session: a random query from
// the pool, behaviour from the worker's stereotype and stream, events
// stamped from a simulated clock that starts now.
func (w *worker) runSession(ctx context.Context) {
	cfg := w.cfg
	q := cfg.Queries[w.rng.Intn(len(cfg.Queries))]
	task := simulation.Task{
		TopicID: q.TopicID, Query: q.Text, Verbose: q.Verbose, Iterations: cfg.Iterations,
		Relevant: func(string) bool { return w.rng.Float64() < cfg.RelevanceRate },
	}
	if q.Relevant != nil {
		task.Relevant = func(shotID string) bool { return q.Relevant[shotID] }
	}
	pol := simulation.Policy{Stereotype: cfg.Stereotypes[w.id%len(cfg.Stereotypes)], Iface: cfg.Iface, Rand: w.rng}
	userID := fmt.Sprintf("vu%03d", w.id)
	w.driveSession(ctx, client.CreateSessionRequest{UserID: userID}, func(t simulation.Transport, sessionID string) error {
		clock := time.Now()
		res := &simulation.SessionResult{SessionID: sessionID, UserID: userID, TopicID: q.TopicID, Interface: cfg.Iface.Name}
		return simulation.RunLoop(t, &pol, &clock, res, task)
	})
}

// driveSession runs one virtual-user session — create, run (the
// session loop over the returned session's Transport), delete —
// timing every SDK call into the worker's telemetry shard. It counts
// the session as ok, failed, or aborted (a failure once ctx is done:
// run deadline, Ctrl-C) and returns its first error.
func (w *worker) driveSession(ctx context.Context, req client.CreateSessionRequest,
	run func(t simulation.Transport, sessionID string) error) error {

	var sessionID string
	err := w.col.timed(EndpointCreateSession, func() error {
		var err error
		sessionID, err = w.c.CreateSession(ctx, req)
		return err
	})
	if err == nil {
		err = run(&remote{ctx: ctx, w: w, sessionID: sessionID}, sessionID)
		// Always end the session server-side, even after a failure or
		// cancellation: a leaked session would skew the server's live
		// gauge. The delete runs on a detached context so the run
		// deadline expiring does not turn cleanup into a failure.
		dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		delErr := w.col.timed(EndpointDeleteSession, func() error {
			return w.c.DeleteSession(dctx, sessionID)
		})
		cancel()
		if err == nil {
			err = delErr
		}
	}
	switch {
	case err == nil:
		w.col.sessions++
	case ctx.Err() != nil:
		w.col.sessionsAborted++
	default:
		w.col.sessionsFailed++
	}
	return err
}

// remote is the session loop's Transport over the SDK: one
// server-side session, with every call timed into the worker's shard.
type remote struct {
	ctx       context.Context
	w         *worker
	sessionID string
}

// Search fetches one page of Config.PageLimit hits, optionally
// trace-sampled.
func (r *remote) Search(query string, depth int) ([]string, []float64, error) {
	w := r.w
	// A cancelled run sends nothing more: a request that fails before
	// reaching the server would count as a client error the server's
	// counters never saw.
	if err := r.ctx.Err(); err != nil {
		return nil, nil, err
	}
	sampled := w.traceSampled()
	var page *client.SearchPage
	err := w.col.timed(EndpointSearch, func() error {
		var err error
		page, err = w.c.Search(r.ctx, client.SearchRequest{
			SessionID: r.sessionID, Query: query, Limit: w.cfg.PageLimit, Trace: sampled,
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if sampled && page.Trace != nil {
		w.col.addTrace(TraceSample{
			Query:      query,
			RequestID:  page.RequestID,
			DurationMS: float64(page.Trace.DurUS) / 1e3,
			Root:       page.Trace,
		})
	}
	w.col.iterations++
	if page.Partial {
		w.col.partials++
	}
	ids := make([]string, len(page.Hits))
	seconds := make([]float64, min(depth, len(page.Hits)))
	for i := range page.Hits {
		ids[i] = page.Hits[i].ShotID
		if i < len(seconds) {
			seconds[i] = page.Hits[i].Seconds
		}
	}
	return ids, seconds, nil
}

// Deliver posts the iteration's events in one batch, fetches every
// clicked shot when Config.FetchShots is set, then thinks.
func (r *remote) Deliver(events []ilog.Event) error {
	w := r.w
	err := w.col.timed(EndpointEvents, func() error {
		_, err := w.c.SendEvents(r.ctx, r.sessionID, events)
		return err
	})
	if err != nil {
		return err
	}
	w.col.events += int64(len(events))
	if w.cfg.FetchShots {
		for _, e := range events {
			if e.Action != ilog.ActionClickKeyframe {
				continue
			}
			err := w.col.timed(EndpointShot, func() error {
				_, err := w.c.Shot(r.ctx, e.ShotID)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	w.think(r.ctx)
	return nil
}

// think pauses between iterations under closed-loop pacing, jittered
// ±50% around the configured mean.
func (w *worker) think(ctx context.Context) {
	if w.cfg.ThinkTime <= 0 {
		return
	}
	d := time.Duration(float64(w.cfg.ThinkTime) * (0.5 + w.rng.Float64()))
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

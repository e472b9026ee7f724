// Package chaostest is an in-process chaos harness for the replicated
// scatter/gather tier: it hosts real segment servers behind scriptable
// fault injectors (kill, hang, slow, garbage, flap, torn mid-response)
// and wires them to a distrib.Cluster whose clock and health prober
// are injected, so failover, hedging and probe-driven routing can be
// driven deterministically — no real sleeps — and asserted under
// -race. The tests in this package are the executable form of the
// availability contract: killing any single replica of a 2-way
// topology never fails a query and never changes a ranking.
package chaostest

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/index"
	"repro/internal/search"
)

// Mode is one injected fault. Kill, Hang and Flap apply to every RPC
// path (a dead process is dead for stats, health and search alike);
// Slow, Garbage and Torn scope to the search path, modelling a
// process that is up but misbehaving under load.
type Mode int32

const (
	// Off forwards requests untouched.
	Off Mode = iota
	// Kill severs the TCP connection before any bytes are written — a
	// SIGKILLed or panicked process as the client sees it.
	Kill
	// Hang accepts the request and never answers until the client
	// gives up (deadline or cancellation) — a wedged process.
	Hang
	// Slow sleeps Delay before forwarding — an overloaded process.
	Slow
	// Garbage answers 200 with bytes no codec can decode — memory
	// corruption or a proxy mangling the body.
	Garbage
	// Flap alternates Off and Kill per request — a crash-looping
	// process racing its supervisor.
	Flap
	// Torn writes the response headers and half the real body, then
	// severs the connection — death mid-response, the hardest fault for
	// a streaming client to classify.
	Torn
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Kill:
		return "kill"
	case Hang:
		return "hang"
	case Slow:
		return "slow"
	case Garbage:
		return "garbage"
	case Flap:
		return "flap"
	case Torn:
		return "torn"
	}
	return fmt.Sprintf("mode(%d)", int32(m))
}

// Injector wraps one segment server's handler with a scriptable
// fault. Mode changes are atomic, so a test can flip faults while
// queries are in flight.
type Injector struct {
	next  http.Handler
	mode  atomic.Int32
	delay atomic.Int64 // Slow's sleep, nanoseconds
	seq   atomic.Uint64
	// Faulted counts requests that hit an active fault.
	Faulted atomic.Int64
}

// NewInjector wraps next; the injector starts Off.
func NewInjector(next http.Handler) *Injector {
	return &Injector{next: next}
}

// Set scripts the current fault mode.
func (in *Injector) Set(m Mode) { in.mode.Store(int32(m)) }

// Mode reports the current fault mode.
func (in *Injector) Mode() Mode { return Mode(in.mode.Load()) }

// SetDelay scripts Slow's per-request delay.
func (in *Injector) SetDelay(d time.Duration) { in.delay.Store(int64(d)) }

// sever kills the underlying connection without a response.
func sever(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

func (in *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode := in.Mode()
	searchPath := r.URL.Path == distrib.SearchPath
	switch mode {
	case Kill:
		in.Faulted.Add(1)
		sever(w)
		return
	case Hang:
		in.Faulted.Add(1)
		// Drain the body first: net/http only watches for client
		// disconnect (and cancels r.Context()) once the request body is
		// consumed, and a hang that outlives its client must still end
		// when the client abandons the call.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		return
	case Flap:
		if in.seq.Add(1)%2 == 1 {
			in.Faulted.Add(1)
			sever(w)
			return
		}
	case Slow:
		if searchPath {
			in.Faulted.Add(1)
			time.Sleep(time.Duration(in.delay.Load()))
		}
	case Garbage:
		if searchPath {
			in.Faulted.Add(1)
			w.Header().Set("Content-Type", distrib.ContentTypeBinary)
			_, _ = w.Write([]byte("\xde\xad\xbe\xef not a frame"))
			return
		}
	case Torn:
		if searchPath {
			in.Faulted.Add(1)
			rec := httptest.NewRecorder()
			in.next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body[:len(body)/2])
			// Abort with the promised Content-Length unmet: the client
			// sees an unexpected EOF mid-body.
			panic(http.ErrAbortHandler)
		}
	}
	in.next.ServeHTTP(w, r)
}

// FakeClock is a manual overload.Clock: timers fire only when the test
// advances it, so hedge budgets and probe ticks become deterministic
// script points instead of real sleeps.
type FakeClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     time.Time
	timers  []*fakeTimer
	created int
}

type fakeTimer struct {
	when time.Time
	ch   chan time.Time
}

// NewFakeClock starts at an arbitrary fixed instant.
func NewFakeClock() *FakeClock {
	c := &FakeClock{now: time.Unix(1_200_000_000, 0)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now implements overload.Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After implements overload.Clock: the returned channel fires when the
// test has advanced past d.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{when: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.timers = append(c.timers, t)
	c.created++
	c.cond.Broadcast()
	return t.ch
}

// AwaitTimers blocks until at least n timers have ever been created —
// the synchronization point that makes "the query has armed its hedge
// timer" an observable event instead of a sleep.
func (c *FakeClock) AwaitTimers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.created < n {
		c.cond.Wait()
	}
}

// Advance moves the clock and fires every timer now due.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.timers[:0]
	for _, t := range c.timers {
		if !t.when.After(c.now) {
			t.ch <- c.now
		} else {
			kept = append(kept, t)
		}
	}
	c.timers = kept
}

// Backend is one injector-wrapped segment server replica.
type Backend struct {
	Injector *Injector
	Hosted   []int
	ts       *httptest.Server
}

// Addr returns the replica's base URL.
func (b *Backend) Addr() string { return b.ts.URL }

// Close shuts the replica's listener down (the harness closes all
// backends at cleanup; tests close one early to model a vanished
// process whose port answers nothing at all).
func (b *Backend) Close() { b.ts.Close() }

// Config sizes a harness.
type Config struct {
	Seed     int64
	Docs     int
	Segments int
	Groups   int // replica groups; ordinals split round-robin
	Replicas int // replicas per group
}

// Harness is a full replicated topology in one process: a deterministic
// corpus built into a single oracle index and a sharded build, served
// by Groups×Replicas injector-wrapped segment servers.
type Harness struct {
	tb      testing.TB
	Single  *index.Index
	Sharded *index.Sharded
	Groups  [][]*Backend
	Clock   *FakeClock

	mu     sync.Mutex
	byAddr map[string]*Backend
}

// New builds the corpus and starts every replica, all faults Off.
func New(tb testing.TB, cfg Config) *Harness {
	tb.Helper()
	if cfg.Docs == 0 {
		cfg.Docs = 120
	}
	if cfg.Segments == 0 {
		cfg.Segments = 4
	}
	if cfg.Groups == 0 {
		cfg.Groups = 2
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	h := &Harness{tb: tb, Clock: NewFakeClock(), byAddr: make(map[string]*Backend)}
	h.Single, h.Sharded = buildCorpus(tb, cfg.Seed, cfg.Docs, cfg.Segments)
	for g := 0; g < cfg.Groups; g++ {
		var hosted []int
		for ord := 0; ord < cfg.Segments; ord++ {
			if ord%cfg.Groups == g {
				hosted = append(hosted, ord)
			}
		}
		var reps []*Backend
		for r := 0; r < cfg.Replicas; r++ {
			reps = append(reps, h.StartReplica(hosted))
		}
		h.Groups = append(h.Groups, reps)
	}
	return h
}

// StartReplica boots one more injector-wrapped replica hosting the
// given ordinals (reload tests swap these into the topology).
func (h *Harness) StartReplica(hosted []int) *Backend {
	h.tb.Helper()
	srv, err := distrib.NewSegmentServer(distrib.ServerConfig{Sharded: h.Sharded, Hosted: hosted})
	if err != nil {
		h.tb.Fatal(err)
	}
	in := NewInjector(srv.Handler())
	ts := httptest.NewServer(in)
	h.tb.Cleanup(ts.Close)
	b := &Backend{Injector: in, Hosted: append([]int(nil), hosted...), ts: ts}
	h.mu.Lock()
	h.byAddr[ts.URL] = b
	h.mu.Unlock()
	return b
}

// Desc builds the current topology descriptor.
func (h *Harness) Desc() *distrib.TopologyDesc {
	desc := &distrib.TopologyDesc{Version: distrib.TopologyVersion}
	for _, reps := range h.Groups {
		var g distrib.TopologyGroup
		for _, b := range reps {
			g.Replicas = append(g.Replicas, b.Addr())
		}
		desc.Groups = append(desc.Groups, g)
	}
	return desc
}

// Prober is a synthetic health probe that consults the injector
// instead of the network: replicas scripted dead (Kill, Hang, Flap)
// probe unhealthy, everything else healthy. Deterministic — a probe
// pass depends only on the scripted modes, never on timing.
func (h *Harness) Prober() distrib.Prober {
	return func(_ context.Context, addr string) error {
		h.mu.Lock()
		b := h.byAddr[addr]
		h.mu.Unlock()
		if b == nil {
			return fmt.Errorf("chaostest: probe of unknown replica %s", addr)
		}
		switch b.Injector.Mode() {
		case Kill, Hang, Flap:
			return fmt.Errorf("chaostest: replica %s scripted %s", addr, b.Injector.Mode())
		}
		return nil
	}
}

// Connect wires a cluster over the harness topology with the fake
// clock and synthetic prober injected (callers may append more
// options, e.g. distrib.WithHedge).
func (h *Harness) Connect(opts ...distrib.Option) *distrib.Cluster {
	h.tb.Helper()
	base := []distrib.Option{
		distrib.WithClock(h.Clock),
		distrib.WithProber(h.Prober()),
	}
	c, err := distrib.ConnectTopology(context.Background(), h.Desc(), append(base, opts...)...)
	if err != nil {
		h.tb.Fatal(err)
	}
	h.tb.Cleanup(c.Close)
	return c
}

// Oracle returns a sequential engine over the single-segment build —
// the in-process ranking every chaos script is compared against.
func (h *Harness) Oracle() *search.Engine {
	return search.NewEngine(h.Single, nil)
}

// Queries draws n deterministic multi-term queries from the corpus
// vocabulary (including a never-matching term).
func Queries(seed int64, n int) []string {
	vocab := []string{"goal", "match", "vote", "storm", "anthem", "summit", "crowd", "election", "missing"}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		q := vocab[rng.Intn(len(vocab))]
		for j := 0; j < rng.Intn(3); j++ {
			q += " " + vocab[rng.Intn(len(vocab))]
		}
		out[i] = q
	}
	return out
}

// buildCorpus mirrors the distrib package's parity-test corpus: the
// same vocabulary-driven random stream built into one single index
// (the oracle) and one sharded build (what the replicas serve).
func buildCorpus(tb testing.TB, seed int64, docs, segments int) (*index.Index, *index.Sharded) {
	tb.Helper()
	vocab := []string{
		"goal", "match", "referee", "vote", "budget", "storm", "flood",
		"anthem", "strike", "summit", "crowd", "stadium", "election",
	}
	gen := func(add func(*index.Document) error) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < docs; i++ {
			d := index.NewDocument(fmt.Sprintf("s%04d", i))
			for j := 0; j < 2+rng.Intn(12); j++ {
				d.AddTerms(index.FieldText, vocab[rng.Intn(len(vocab))])
			}
			if rng.Intn(3) == 0 {
				d.SetTermCount(index.FieldConcept, vocab[rng.Intn(len(vocab))], 1+rng.Intn(9))
			}
			if err := add(d); err != nil {
				tb.Fatal(err)
			}
		}
	}
	sb := index.NewBuilder()
	gen(sb.AddDocument)
	// The sharded build deals the same stream round-robin.
	builders := make([]*index.Builder, segments)
	for i := range builders {
		builders[i] = index.NewBuilder()
	}
	next := 0
	gen(func(d *index.Document) error {
		next++
		return builders[(next-1)%segments].AddDocument(d)
	})
	segs := make([]*index.Index, segments)
	for i, b := range builders {
		segs[i] = b.Build()
	}
	sh, err := index.NewSharded(segs)
	if err != nil {
		tb.Fatal(err)
	}
	return sb.Build(), sh
}

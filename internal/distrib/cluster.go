package distrib

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/overload"
	"repro/internal/retrieval"
	"repro/internal/search"
	"repro/internal/text"
	"repro/internal/tier"
	"repro/internal/trace"
)

// DefaultRPCTimeout bounds one segment RPC when no option overrides
// it. A segment scoring pass is sub-millisecond work; five seconds is
// generous headroom for a loaded backend while still guaranteeing a
// hung backend surfaces as a typed timeout instead of a stalled query.
const DefaultRPCTimeout = 5 * time.Second

// statsDeadline bounds the startup statistics download when the
// Connect context carries no deadline of its own.
const statsDeadline = 2 * time.Minute

// Prober checks one backend's liveness; nil error marks it healthy.
// The default prober GETs /rpc/v1/healthz under the RPC timeout;
// tests inject synthetic probers for deterministic health scripting.
type Prober func(ctx context.Context, addr string) error

// Option configures Connect.
type Option func(*clusterConfig)

type clusterConfig struct {
	timeout         time.Duration
	hc              *http.Client
	hedgeAfter      time.Duration
	probeInterval   time.Duration
	clock           overload.Clock
	prober          Prober
	retryRatio      float64
	retryBurst      int
	breakerFails    int
	breakerCooldown time.Duration
	degraded        bool
}

// Overload-protection defaults: retried traffic (hedges + failovers)
// is bounded to 10% of primary traffic with a 64-token burst; a
// replica trips its breaker open after 5 consecutive retryable faults
// and re-enters rotation via one probation RPC after a successful
// probe or a 5s cooldown.
const (
	defaultRetryRatio      = 0.1
	defaultRetryBurst      = 64
	defaultBreakerFails    = 5
	defaultBreakerCooldown = 5 * time.Second
)

// WithTimeout bounds each segment RPC (default DefaultRPCTimeout).
func WithTimeout(d time.Duration) Option {
	return func(c *clusterConfig) { c.timeout = d }
}

// WithHTTPClient substitutes the transport (tests inject
// httptest-backed clients; WithTimeout still applies unless the
// client already sets one).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *clusterConfig) { c.hc = hc }
}

// WithHedge arms latency hedging: when a segment RPC has not answered
// after d and the ordinal has an idle twin replica, the same request
// is sent to the twin and the first success wins (the loser is
// cancelled, and a cancelled loser is never counted as a backend
// fault). 0 disables hedging (the default). Hedges are visible per
// backend in BackendSummaries and as ivr_rpc_hedge_total on the serve
// tier's Prometheus scrape.
func WithHedge(d time.Duration) Option {
	return func(c *clusterConfig) { c.hedgeAfter = d }
}

// WithProbeInterval starts a background health-probe loop ticking
// every d: each replica is probed (default prober: GET /rpc/v1/healthz
// under the RPC timeout) and its health bit feeds routing — healthy
// replicas are preferred, unhealthy ones tried last. 0 (the default)
// disables the loop; health is then driven by search outcomes and by
// explicit ProbeNow calls.
func WithProbeInterval(d time.Duration) Option {
	return func(c *clusterConfig) { c.probeInterval = d }
}

// WithClock substitutes the time source for hedge timers, the probe
// loop and the topology file watcher (tests).
func WithClock(clk overload.Clock) Option {
	return func(c *clusterConfig) { c.clock = clk }
}

// WithProber substitutes the health probe implementation (tests).
func WithProber(p Prober) Option {
	return func(c *clusterConfig) { c.prober = p }
}

// WithRetryBudget tunes the cluster-wide retry token bucket: hedges
// and failovers spend a token each, primaries earn ratio tokens, and
// the balance starts at (and is capped by) burst. ratio <= 0 disables
// the budget (every retry is granted). The default is ratio 0.1,
// burst 64 — retried traffic bounded to ~10% of primary traffic.
func WithRetryBudget(ratio float64, burst int) Option {
	return func(c *clusterConfig) {
		c.retryRatio = ratio
		c.retryBurst = burst
	}
}

// WithBreaker tunes the per-backend circuit breakers: a replica whose
// search RPCs fail `fails` consecutive times trips open and is skipped
// (whenever a twin is available) until a successful health probe or
// the cooldown arms a single probation RPC. fails <= 0 disables the
// breakers. The default is 5 failures, 5s cooldown.
func WithBreaker(fails int, cooldown time.Duration) Option {
	return func(c *clusterConfig) {
		c.breakerFails = fails
		c.breakerCooldown = cooldown
	}
}

// WithDegraded arms degraded-mode search on engines built by
// NewEngine: when some segments answer and others fail (replicas down
// past failover, budget-denied retries), the query returns the merged
// results of the answering segments marked partial instead of
// failing — never torn, never silent.
func WithDegraded() Option {
	return func(c *clusterConfig) { c.degraded = true }
}

// Cluster is the merge tier's view of a replicated segment-server
// topology: each segment ordinal is served by a replica group, scatter
// requests route to healthy replicas with failover and optional
// hedging, and the whole replica layout can be swapped at runtime
// (Reload) without touching the startup-aggregated statistics — a
// reload is only accepted when the new backends serve the exact same
// collection build. Safe for concurrent use.
type Cluster struct {
	cfg      clusterConfig
	searchHC *http.Client
	statsHC  *http.Client
	clock    overload.Clock
	prober   Prober

	// Immutable after Connect: the collection identity and statistics.
	nSegs      int
	numDocs    int
	hash       uint64
	sourceHash uint64
	stats      *globalStats
	segments   []search.SegmentSearcher
	segDocs    []int

	// state is the live routing table, swapped atomically by Reload.
	state atomic.Pointer[topoState]

	mu         sync.Mutex // serializes reloads; guards known
	known      map[string]*backend
	reloads    atomic.Int64
	reloadErrs atomic.Int64

	// budget bounds retry amplification cluster-wide (never nil after
	// Connect; an unlimited bucket when WithRetryBudget disables it).
	budget *overload.RetryBudget

	stop     chan struct{}
	stopOnce sync.Once
}

// topoState is one immutable routing table: the replica groups and a
// per-ordinal rotation cursor spreading load across healthy twins.
type topoState struct {
	desc     *TopologyDesc
	backends []*backend
	groups   [][]*backend // ordinal -> replicas
	rr       []atomic.Uint32
}

// order returns the preference order for one ordinal's replicas:
// healthy replicas first (rotated per query so twins share load),
// then unhealthy ones — an all-down group is still tried rather than
// failed outright, so a stale health bit can never black-hole an
// ordinal that would actually answer.
func (st *topoState) order(ord int) []*backend {
	reps := st.groups[ord]
	if len(reps) == 1 {
		return reps
	}
	start := int(st.rr[ord].Add(1)-1) % len(reps)
	out := make([]*backend, 0, len(reps))
	var down []*backend
	for i := 0; i < len(reps); i++ {
		b := reps[(start+i)%len(reps)]
		if b.healthy.Load() {
			out = append(out, b)
		} else {
			down = append(down, b)
		}
	}
	return append(out, down...)
}

// Connect wires a cluster over an unreplicated topology: each address
// forms its own single-replica group. See ConnectTopology for the
// replicated form.
func Connect(ctx context.Context, addrs []string, opts ...Option) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("distrib: no backend addresses")
	}
	desc := flatDesc(addrs)
	if err := validateTopology(desc); err != nil {
		return nil, err
	}
	return ConnectTopology(ctx, desc, opts...)
}

// ConnectTopology fetches /rpc/v1/stats from every replica of every
// group, validates that the addresses assemble into exactly one
// coherent topology (same segment count and collection hash
// everywhere, every ordinal hosted by exactly one group, twins within
// a group hosting identical ordinal sets, round-robin segment sizes),
// and aggregates the collection-wide statistics the engine will ship
// with every query. This is the once-at-startup half of the parity
// contract: after Connect, no query ever consults a per-segment
// statistic, and no reload can change the statistics — only where
// they are served from.
func ConnectTopology(ctx context.Context, desc *TopologyDesc, opts ...Option) (*Cluster, error) {
	if desc == nil || len(desc.Groups) == 0 {
		return nil, fmt.Errorf("distrib: no backend addresses")
	}
	cfg := clusterConfig{
		timeout:         DefaultRPCTimeout,
		clock:           overload.RealClock{},
		retryRatio:      defaultRetryRatio,
		retryBurst:      defaultRetryBurst,
		breakerFails:    defaultBreakerFails,
		breakerCooldown: defaultBreakerCooldown,
	}
	for _, o := range opts {
		o(&cfg)
	}
	base := cfg.hc
	if base == nil {
		base = &http.Client{}
	}
	// Two clients off one transport: search RPCs (and health probes)
	// carry the tight per-query deadline, while the startup stats
	// download — orders of magnitude larger than any search body — is
	// bounded only by the Connect context (statsDeadline below when the
	// caller set none), so a big dictionary dump cannot force the
	// operator to loosen the per-query deadline.
	searchHC, statsHC := *base, *base
	if searchHC.Timeout == 0 {
		searchHC.Timeout = cfg.timeout
	}
	statsHC.Timeout = 0

	c := &Cluster{
		cfg:      cfg,
		searchHC: &searchHC,
		statsHC:  &statsHC,
		clock:    cfg.clock,
		prober:   cfg.prober,
		known:    make(map[string]*backend),
		stop:     make(chan struct{}),
	}
	if c.prober == nil {
		c.prober = c.defaultProbe
	}
	c.budget = overload.NewRetryBudget(cfg.retryRatio, cfg.retryBurst)

	asm, err := c.assemble(ctx, desc, nil)
	if err != nil {
		return nil, err
	}
	c.nSegs = asm.n
	c.numDocs = asm.numDocs
	c.hash = asm.hash
	c.sourceHash = asm.sourceHash
	gs, err := aggregateStats(asm.n, asm.numDocs, asm.segStats)
	if err != nil {
		return nil, err
	}
	c.stats = gs
	c.segments = make([]search.SegmentSearcher, asm.n)
	c.segDocs = make([]int, asm.n)
	for ord := range c.segments {
		c.segments[ord] = &remoteSegment{
			c:       c,
			ordinal: ord,
			numDocs: asm.segStats[ord].NumDocs,
		}
		c.segDocs[ord] = asm.segStats[ord].NumDocs
	}
	c.adopt(asm.st)
	if cfg.probeInterval > 0 {
		go c.probeLoop()
	}
	return c, nil
}

// adopt swaps in a new routing table and refreshes the known-backend
// map. Callers hold mu (or are still single-threaded in Connect).
func (c *Cluster) adopt(st *topoState) {
	c.state.Store(st)
	c.known = make(map[string]*backend, len(st.backends))
	for _, b := range st.backends {
		c.known[b.addr] = b
	}
}

// assembled is everything discovered while validating one descriptor
// against its live backends.
type assembled struct {
	st         *topoState
	segStats   []*SegmentStats // indexed by ordinal
	n          int
	numDocs    int
	hash       uint64
	sourceHash uint64
}

// assemble fetches stats from every replica of the descriptor and
// validates the full topology. reuse (nil-able) maps addresses to
// existing backends so a reload keeps telemetry and health state for
// replicas that stay. Nothing is mutated on the cluster: the caller
// decides whether to adopt the returned state.
func (c *Cluster) assemble(ctx context.Context, desc *TopologyDesc, reuse map[string]*backend) (*assembled, error) {
	statsCtx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		statsCtx, cancel = context.WithTimeout(ctx, statsDeadline)
		defer cancel()
	}

	st := &topoState{desc: desc}
	groupOf := make([][]*backend, len(desc.Groups))
	for gi, g := range desc.Groups {
		groupOf[gi] = make([]*backend, len(g.Replicas))
		for ri, addr := range g.Replicas {
			b := reuse[addr]
			if b == nil {
				b = newBackend(addr, c.searchHC, c.statsHC)
				b.brk = newBreaker(c.clock, c.cfg.breakerFails, c.cfg.breakerCooldown)
			}
			groupOf[gi][ri] = b
			st.backends = append(st.backends, b)
		}
	}
	stats := make([]*StatsResponse, len(st.backends))
	errs := make([]error, len(st.backends))
	var wg sync.WaitGroup
	for i, b := range st.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			stats[i], errs[i] = b.stats(statsCtx)
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Topology agreement across every replica of every group.
	n := stats[0].Segments
	hash := stats[0].CollectionHash
	sourceHash := stats[0].SourceHash
	for i, stt := range stats {
		if stt.Segments != n {
			return nil, fmt.Errorf("distrib: backend %s reports %d segments, %s reports %d",
				st.backends[i].addr, stt.Segments, st.backends[0].addr, n)
		}
		if stt.CollectionHash != hash || stt.SourceHash != sourceHash {
			return nil, fmt.Errorf("distrib: backend %s was built from a different collection than %s (hashes %x/%x vs %x/%x)",
				st.backends[i].addr, st.backends[0].addr,
				stt.CollectionHash, stt.SourceHash, hash, sourceHash)
		}
	}

	// Group coherence: twins must host identical ordinal sets, and each
	// ordinal must be owned by exactly one group.
	hostedOf := func(flat int) []int {
		out := make([]int, 0, len(stats[flat].Hosted))
		for j := range stats[flat].Hosted {
			out = append(out, stats[flat].Hosted[j].Segment)
		}
		sort.Ints(out)
		return out
	}
	asm := &assembled{st: st, n: n, hash: hash, sourceHash: sourceHash}
	asm.segStats = make([]*SegmentStats, n)
	ownerGroup := make([]int, n)
	for ord := range ownerGroup {
		ownerGroup[ord] = -1
	}
	groups := make([][]*backend, n)
	flat := 0
	for gi, g := range desc.Groups {
		first := flat
		firstHosted := hostedOf(first)
		for ri := range g.Replicas {
			idx := flat
			flat++
			if ri == 0 {
				continue
			}
			if twin := hostedOf(idx); !equalInts(twin, firstHosted) {
				return nil, fmt.Errorf("distrib: replica %s hosts segments %v but its group twin %s hosts %v",
					st.backends[idx].addr, twin, st.backends[first].addr, firstHosted)
			}
		}
		if len(g.Segments) > 0 && !equalInts(g.Segments, firstHosted) {
			return nil, fmt.Errorf("%w: group %d declares segments %v but its replicas host %v",
				ErrTopologyMismatch, gi, g.Segments, firstHosted)
		}
		for j := range stats[first].Hosted {
			seg := &stats[first].Hosted[j]
			if seg.Segment < 0 || seg.Segment >= n {
				return nil, fmt.Errorf("distrib: backend %s hosts segment %d outside topology of %d",
					st.backends[first].addr, seg.Segment, n)
			}
			if prev := ownerGroup[seg.Segment]; prev >= 0 {
				return nil, fmt.Errorf("distrib: segment %d hosted by both %s and %s",
					seg.Segment, desc.Groups[prev].Replicas[0], st.backends[first].addr)
			}
			if len(seg.ExtIDs) != seg.NumDocs {
				return nil, fmt.Errorf("distrib: backend %s segment %d: %d ext ids for %d docs",
					st.backends[first].addr, seg.Segment, len(seg.ExtIDs), seg.NumDocs)
			}
			ownerGroup[seg.Segment] = gi
			asm.segStats[seg.Segment] = seg
			groups[seg.Segment] = groupOf[gi]
		}
		// Record the discovered hosting in the normalized descriptor so
		// TopologyView and reload summaries name real ordinals.
		desc.Groups[gi].Segments = firstHosted
	}
	for ord, gi := range ownerGroup {
		if gi < 0 {
			return nil, fmt.Errorf("distrib: segment %d hosted by no backend", ord)
		}
		asm.numDocs += asm.segStats[ord].NumDocs
	}
	// Round-robin size invariant: the global DocID arithmetic
	// (global = local*n + ordinal) depends on it, exactly as in
	// index.NewSharded.
	for ord, sgs := range asm.segStats {
		want := asm.numDocs / n
		if ord < asm.numDocs%n {
			want++
		}
		if sgs.NumDocs != want {
			return nil, fmt.Errorf("distrib: segment %d holds %d docs, round-robin split of %d over %d expects %d",
				ord, sgs.NumDocs, asm.numDocs, n, want)
		}
	}
	st.groups = groups
	st.rr = make([]atomic.Uint32, n)
	return asm, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Reload validates a new descriptor against the running cluster and
// atomically swaps the routing table. The swap is all-or-nothing: any
// unreachable replica, incoherent group, or — decisive — a backend
// whose collection or source hash differs from the running cluster's
// (ErrTopologyMismatch) rejects the whole reload and leaves the
// current topology serving. Replicas present in both topologies keep
// their telemetry and health state; replicas that leave finish their
// in-flight RPCs and are no longer routed to or probed.
func (c *Cluster) Reload(ctx context.Context, desc *TopologyDesc) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	asm, err := c.assemble(ctx, desc, c.known)
	if err != nil {
		c.reloadErrs.Add(1)
		return err
	}
	if asm.n != c.nSegs || asm.hash != c.hash || asm.sourceHash != c.sourceHash {
		c.reloadErrs.Add(1)
		return fmt.Errorf("%w: new backends serve %d segments hash %x/%x, cluster serves %d segments hash %x/%x",
			ErrTopologyMismatch, asm.n, asm.hash, asm.sourceHash, c.nSegs, c.hash, c.sourceHash)
	}
	c.adopt(asm.st)
	c.reloads.Add(1)
	return nil
}

// ApplyTopology parses a descriptor document and reloads onto it —
// the admin-endpoint and file-watcher entry point. A nil ctx is
// accepted (background). Errors are typed: ErrTopologySyntax /
// ErrTopologyInvalid for a bad document, ErrTopologyMismatch for
// backends that cannot serve this collection, *BackendError for an
// unreachable replica. On any error the running topology is untouched.
func (c *Cluster) ApplyTopology(ctx context.Context, descriptor []byte) error {
	desc, err := ParseTopology(descriptor)
	if err != nil {
		c.reloadErrs.Add(1)
		return err
	}
	return c.Reload(ctx, desc)
}

// Topology snapshots the live routing table for the admin surface.
func (c *Cluster) Topology() TopologyView {
	st := c.state.Load()
	view := TopologyView{
		Segments:     c.nSegs,
		Reloads:      c.reloads.Load(),
		ReloadErrors: c.reloadErrs.Load(),
	}
	// Reconstruct groups from the descriptor order so the view mirrors
	// what the operator wrote.
	flat := 0
	for _, g := range st.desc.Groups {
		gv := TopologyGroupView{Segments: append([]int(nil), g.Segments...)}
		for range g.Replicas {
			b := st.backends[flat]
			flat++
			gv.Replicas = append(gv.Replicas, ReplicaView{Addr: b.addr, Healthy: b.healthy.Load()})
		}
		view.Groups = append(view.Groups, gv)
	}
	return view
}

// DescribeTopology implements the webapi admin interface.
func (c *Cluster) DescribeTopology() any { return c.Topology() }

// defaultProbe GETs the replica's /rpc/v1/healthz under the RPC
// deadline; any transport fault or non-200 marks it unhealthy.
func (c *Cluster) defaultProbe(ctx context.Context, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+HealthPath, nil)
	if err != nil {
		return err
	}
	resp, err := c.searchHC.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("distrib: healthz status %d", resp.StatusCode)
	}
	return nil
}

// ProbeNow health-probes every replica of the current topology once,
// concurrently, and updates the routing health bits. The probe loop
// calls this on its tick; tests call it directly for deterministic
// health transitions.
func (c *Cluster) ProbeNow(ctx context.Context) {
	st := c.state.Load()
	var wg sync.WaitGroup
	for _, b := range st.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			err := c.prober(ctx, b.addr)
			if err != nil {
				b.probeFails.Add(1)
			} else {
				// A live probe arms an open breaker's probation trial, so
				// a recovered replica re-enters rotation one probe interval
				// after it comes back.
				b.brk.onProbeSuccess()
			}
			b.healthy.Store(err == nil)
		}(b)
	}
	wg.Wait()
}

func (c *Cluster) probeLoop() {
	for {
		select {
		case <-c.stop:
			return
		case <-c.clock.After(c.cfg.probeInterval):
		}
		c.ProbeNow(context.Background())
	}
}

// Close stops the background probe loop and any topology file
// watcher. In-flight RPCs are unaffected. Safe to call more than once.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
}

// NumSegments returns the topology's total segment count.
func (c *Cluster) NumSegments() int { return c.nSegs }

// NumDocs returns the collection-wide document count.
func (c *Cluster) NumDocs() int { return c.numDocs }

// SourceHash returns the backends' agreed collection source hash
// (zero when the backends were wired from bare indexes). The merge
// tier compares it against CollectionSourceHash of its own collection
// before serving, so scores and metadata cannot come from different
// archives.
func (c *Cluster) SourceHash() uint64 { return c.sourceHash }

// backendsNow snapshots the live backend objects (test hook).
func (c *Cluster) backendsNow() []*backend { return c.state.Load().backends }

// Backends returns the current backend base URLs in descriptor order.
func (c *Cluster) Backends() []string {
	st := c.state.Load()
	out := make([]string, len(st.backends))
	for i, b := range st.backends {
		out[i] = b.addr
	}
	return out
}

// NewEngine assembles the scatter/gather searcher: remote segments
// behind the same search.Engine executor and TopK merge as the
// in-process fan-out. analyzer must match the pipeline the segment
// servers indexed with (nil selects the shared default); workers
// bounds concurrent in-flight RPCs per query (0 = GOMAXPROCS). The
// engine survives topology reloads: each remote segment routes
// through the cluster's live replica table on every call.
func (c *Cluster) NewEngine(analyzer *text.Analyzer, workers int) *search.Engine {
	eng := search.NewSegmentsEngine(c.stats, c.segments, analyzer, workers)
	if c.cfg.degraded {
		eng.SetAllowPartial(true)
	}
	return eng
}

// RetryBudget snapshots the cluster-wide retry token bucket for
// telemetry surfaces (ivr_retry_budget_* on the serve tier's scrape).
func (c *Cluster) RetryBudget() overload.RetryBudgetStats { return c.budget.Stats() }

// BackendSummaries snapshots per-backend RPC telemetry for the
// `search` block of /api/v1/metrics.
func (c *Cluster) BackendSummaries() []retrieval.BackendSummary {
	st := c.state.Load()
	out := make([]retrieval.BackendSummary, len(st.backends))
	for i, b := range st.backends {
		s := retrieval.BackendSummary{
			Addr:          b.addr,
			Healthy:       b.healthy.Load(),
			Requests:      b.requests.Load(),
			Errors:        b.errors.Load(),
			Hedges:        b.hedges.Load(),
			Failovers:     b.failovers.Load(),
			ProbeFailures: b.probeFails.Load(),
			Breaker:       b.brk.state(),
			BreakerTrips:  b.brk.tripCount(),
			Latency:       b.latency.Summary(),
		}
		for ord, group := range st.groups {
			for _, rb := range group {
				if rb == b {
					s.Segments = append(s.Segments, ord)
					break
				}
			}
		}
		sort.Ints(s.Segments)
		out[i] = s
	}
	return out
}

// retryableFault reports whether a failed segment RPC may be retried
// against a twin replica. Transport faults, timeouts, 5xx envelopes
// and garbage bodies are all safe to retry: search RPCs are pure
// reads, so a duplicate can at worst waste one scoring pass. A 4xx is
// the merge tier's own request being wrong — a twin would refuse it
// identically — and a cancelled context is the caller (or a winning
// hedge) abandoning the call.
func retryableFault(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	// A spent budget is spent everywhere: retrying a twin cannot
	// manufacture time.
	if errors.Is(err, overload.ErrDeadlineExceeded) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		if se.code == tier.CodeDeadline {
			return false
		}
		// A typed shed is per-replica pressure: the twin may have
		// capacity, so failing over is exactly right.
		if se.status == http.StatusTooManyRequests {
			return true
		}
		return se.status >= 500
	}
	return true
}

// searchOrdinal scores one ordinal with failover across its replica
// group and optional hedging: the preferred (healthy, rotated)
// replica is asked first; a retryable failure immediately fails over
// to the next replica, and — when hedging is armed — a primary that
// has not answered within the hedge budget races a twin, first
// success wins and the loser's RPC is cancelled. Returns the winning
// backend for trace attribution.
func (c *Cluster) searchOrdinal(ctx context.Context, sreq SearchRequest) (*SearchResponse, *backend, error) {
	// A request whose latency budget is already spent does zero segment
	// work: no RPC is launched, the typed error surfaces immediately.
	if overload.FromContext(ctx).Expired() {
		return nil, nil, overload.ErrDeadlineExceeded
	}
	st := c.state.Load()
	order := st.order(sreq.Segment)
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		resp *SearchResponse
		b    *backend
		err  error
	}
	results := make(chan outcome, len(order))
	next := 0
	// pick selects the next replica to try, preferring ones whose
	// breaker admits the launch; when every remaining replica is
	// breaker-blocked the head is used anyway — the breaker shapes
	// routing, it never black-holes an ordinal.
	pick := func() *backend {
		for i := next; i < len(order); i++ {
			if order[i].brk.allow() {
				// Swap only on a real reorder: a single-replica group
				// shares its slice across concurrent queries, so a
				// self-swap would be a data race.
				if i != next {
					order[i], order[next] = order[next], order[i]
				}
				break
			}
		}
		b := order[next]
		next++
		return b
	}
	launch := func(hedge, failover bool) {
		b := pick()
		if hedge {
			b.hedges.Add(1)
		}
		if failover {
			b.failovers.Add(1)
		}
		go func() {
			resp, err := b.search(actx, sreq)
			results <- outcome{resp, b, err}
		}()
	}
	c.budget.Earn()
	launch(false, false)
	pending := 1
	var hedgeCh <-chan time.Time
	if c.cfg.hedgeAfter > 0 && next < len(order) {
		hedgeCh = c.clock.After(c.cfg.hedgeAfter)
	}
	var lastErr error
	for pending > 0 {
		select {
		case <-ctx.Done():
			// The query itself is gone; pending RPCs die with actx.
			if lastErr == nil {
				lastErr = ctx.Err()
			}
			return nil, nil, lastErr
		case <-hedgeCh:
			hedgeCh = nil
			if next < len(order) && c.budget.Take() {
				launch(true, false)
				pending++
			}
		case out := <-results:
			pending--
			if out.err == nil {
				out.b.healthy.Store(true)
				out.b.brk.onSuccess()
				return out.resp, out.b, nil
			}
			lastErr = out.err
			switch {
			case errors.Is(out.err, context.Canceled):
				// The caller (or a winning hedge) abandoned this RPC; it
				// says nothing about the replica.
				out.b.brk.onCanceled()
			case retryableFault(out.err):
				// Route around this replica until a probe clears it.
				out.b.healthy.Store(false)
				out.b.brk.onFailure()
				if next < len(order) && ctx.Err() == nil && c.budget.Take() {
					launch(false, true)
					pending++
				}
			default:
				// A decisive refusal (4xx, spent budget) still proves the
				// link works.
				out.b.brk.onSuccess()
			}
		}
	}
	return nil, nil, lastErr
}

// remoteSegment adapts one segment ordinal — served by whichever
// replica the live topology prefers — to search.SegmentSearcher.
type remoteSegment struct {
	c       *Cluster
	ordinal int
	numDocs int
}

// NumDocs implements search.SegmentSearcher.
func (r *remoteSegment) NumDocs() int { return r.numDocs }

// SearchSegment implements search.SegmentSearcher. The compiled query
// itself cannot cross the process boundary, so the wire request
// carries its (Query, []TermStats, Scorer) source triple; the far side
// re-compiles from those identical inputs and runs the same kernel on
// the same constants, which keeps remote scores bit-identical to
// in-process ones — from any replica of the ordinal's group, because
// every replica is validated (collection hash) to hold the same
// build. Filters are opaque predicates that cannot cross the boundary
// either, so a filtered query fetches the segment's full candidate
// list and applies the filter merge-side before the top-k cut — the
// same filter-then-cut order as in-process, so rankings stay
// bit-identical (at the cost of a fatter response; the serving layer
// only passes filters for category-faceted queries, which also bypass
// the result cache).
func (r *remoteSegment) SearchSegment(ctx context.Context, p *search.PreparedQuery,
	filter func(string) bool, k int) (search.SegmentResult, error) {
	q, stats := p.Query(), p.Stats()
	spec, err := SpecForScorer(p.Scorer())
	if err != nil {
		return search.SegmentResult{}, err
	}
	req := SearchRequest{
		Segment: r.ordinal,
		Field:   q.Field.String(),
		Terms:   make([]WireTerm, len(q.Terms)),
		Stats:   make([]WireTermStats, len(stats)),
		Scorer:  spec,
		K:       k,
	}
	if filter != nil {
		req.K = -1 // full candidate list; filter is applied below
	}
	for i, t := range q.Terms {
		req.Terms[i] = WireTerm{Term: t.Term, Weight: t.Weight}
	}
	for i, st := range stats {
		req.Stats[i] = WireTermStats{
			N: st.N, AvgDocLen: st.AvgDocLen, TotalLen: st.TotalLen,
			DF: st.DF, CF: st.CF, Weight: st.Weight,
		}
	}
	resp, winner, err := r.c.searchOrdinal(ctx, req)
	if err != nil {
		// A segment server's typed deadline refusal surfaces to callers
		// as the overload sentinel, so the serve tier maps the whole
		// query to deadline_exceeded rather than a generic failure.
		var se *statusError
		if errors.As(err, &se) && se.code == tier.CodeDeadline && !errors.Is(err, overload.ErrDeadlineExceeded) {
			err = errors.Join(overload.ErrDeadlineExceeded, err)
		}
		return search.SegmentResult{}, err
	}
	// The engine's per-"segment" span is current in ctx here; annotate
	// it with where this ordinal actually went so a straggler or
	// failed-over backend is identifiable from the trace alone.
	if sp := trace.SpanFromContext(ctx); sp != nil && winner != nil {
		sp.SetAttr("backend", winner.addr)
	}
	if filter == nil {
		hits := make([]search.Hit, len(resp.Hits))
		for i, h := range resp.Hits {
			hits[i] = search.Hit{Doc: index.DocID(h.Doc), ID: h.ID, Score: h.Score}
		}
		recycleWireHits(resp.Hits)
		return search.SegmentResult{Hits: hits, Candidates: resp.Candidates}, nil
	}
	if k <= 0 {
		// Honour the interface's unbounded mode: keep every candidate
		// that survives the filter (NewTopK(0) would keep none).
		k = len(resp.Hits)
		if k == 0 {
			k = 1
		}
	}
	top := search.NewTopK(k)
	candidates := 0
	for _, h := range resp.Hits {
		if !filter(h.ID) {
			continue
		}
		candidates++
		top.Offer(search.Hit{Doc: index.DocID(h.Doc), ID: h.ID, Score: h.Score})
	}
	recycleWireHits(resp.Hits)
	return search.SegmentResult{Hits: top.Ranked(), Candidates: candidates}, nil
}

// globalStats is the startup-aggregated search.StatsView over the
// whole topology: the distributed analogue of index.Sharded's
// statistics surface, computed once so queries never wait on a
// statistics RPC.
type globalStats struct {
	numDocs int
	fields  map[index.Field]*fieldAgg
	ext2id  map[string]index.DocID
}

type fieldAgg struct {
	totalLen int64
	terms    map[string]TermCounts
}

// aggregateStats folds per-segment statistics into the global view.
// segStats is indexed by ordinal and fully populated.
func aggregateStats(n, numDocs int, segStats []*SegmentStats) (*globalStats, error) {
	gs := &globalStats{
		numDocs: numDocs,
		fields:  make(map[index.Field]*fieldAgg, len(statsFields)),
		ext2id:  make(map[string]index.DocID, numDocs),
	}
	for _, f := range statsFields {
		gs.fields[f] = &fieldAgg{terms: make(map[string]TermCounts)}
	}
	for ord, st := range segStats {
		for local, ext := range st.ExtIDs {
			if _, dup := gs.ext2id[ext]; dup {
				return nil, fmt.Errorf("distrib: external id %q appears in more than one segment (segment %d)", ext, ord)
			}
			gs.ext2id[ext] = index.DocID(local*n + ord)
		}
		for _, f := range statsFields {
			fs, ok := st.Fields[f.String()]
			if !ok {
				return nil, fmt.Errorf("distrib: segment %d stats missing field %s", ord, f)
			}
			agg := gs.fields[f]
			agg.totalLen += fs.TotalLen
			for term, tc := range fs.Terms {
				cur := agg.terms[term]
				cur.DF += tc.DF
				cur.CF += tc.CF
				agg.terms[term] = cur
			}
		}
	}
	return gs, nil
}

// NumDocs implements search.StatsView.
func (g *globalStats) NumDocs() int { return g.numDocs }

// AvgDocLen implements search.StatsView with the same formula as
// index.Sharded (one float division over integer sums, so the value
// is bit-identical to the in-process aggregate).
func (g *globalStats) AvgDocLen(f index.Field) float64 {
	if g.numDocs == 0 {
		return 0
	}
	return float64(g.fields[f].totalLen) / float64(g.numDocs)
}

// TotalFieldLen implements search.StatsView.
func (g *globalStats) TotalFieldLen(f index.Field) int64 { return g.fields[f].totalLen }

// DocFreq implements search.StatsView.
func (g *globalStats) DocFreq(f index.Field, term string) int { return g.fields[f].terms[term].DF }

// CollectionFreq implements search.StatsView.
func (g *globalStats) CollectionFreq(f index.Field, term string) int64 {
	return g.fields[f].terms[term].CF
}

// DocIDOf implements search.StatsView.
func (g *globalStats) DocIDOf(ext string) (index.DocID, bool) {
	d, ok := g.ext2id[ext]
	return d, ok
}

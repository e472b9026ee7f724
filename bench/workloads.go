package main

// workload is one named traffic mix. Later issues cite these names.
type workload struct {
	Name     string
	Why      string // one line; BENCHMARK.json carries the same text
	Script   string
	Topology string
	// Valid cache-hit-ratio range over the measured window: the regime
	// this workload exists to select. Outside it the numbers describe
	// some other workload, so the run is refused.
	MinHit, MaxHit float64
}

var workloads = []workload{
	{
		Name:     "serve.warm",
		Why:      "one ivrserve, paging with no new evidence: every search is a result-cache hit, so webapi encode/middleware, the HTTP server and the client SDK do nearly all the work",
		Script:   scriptWarm,
		Topology: topoServe,
		MinHit:   0.90, MaxHit: 1,
	},
	{
		Name:     "serve.adapt",
		Why:      "one ivrserve, every search follows fresh clicks: the cache misses, so feedback expansion, the search kernel/merge and index postings dominate",
		Script:   scriptAdapt,
		Topology: topoServe,
		MinHit:   0, MaxHit: 0.35,
	},
	{
		Name:     "tiers.adapt",
		Why:      "the serve.adapt script through ivrroute, ivrserve -segment-addrs and 2 ivrsegment: adds the router hop and distrib scatter/gather, so the difference is the cost of distribution",
		Script:   scriptAdapt,
		Topology: topoTiers,
		MinHit:   0, MaxHit: 0.35,
	},
	{
		Name:     "session.write",
		Why:      "one ivrserve with a session journal, 48 events per search: Session.Observe, the core state codec and journal append+fsync batching, where eager per-event work shows as a loss",
		Script:   scriptWrite,
		Topology: topoJournal,
		MinHit:   0, MaxHit: 1,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one named metric. The two tables below are the Go twin
// of BENCHMARK.json (a test keeps them identical): -compare needs the
// bounds and directions, and the result line must carry exactly these
// names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen
}

// End-to-end: what a user of the system sees. Every workload reports
// every one of them, and none can be zero on a working system.
var endToEnd = []metricDef{
	{"iter_per_s", "1/s", "higher", 0.20},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p95_ms", "ms", "lower", 0.25},
	{"events_p50_ms", "ms", "lower", 0.20},
	{"events_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer: one layer each (layer = package name), informational, no
// bound. A layer that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	// scraped from the running processes
	{"retrieval.cache_hit_ratio", "ratio", "higher", 0},
	{"search.kernel.blocks_skipped_ratio", "ratio", "higher", 0},
	{"distrib.rpcs_per_search", "count", "lower", 0},
	{"distrib.retries_total", "count", "lower", 0},
	{"core.sessions_persisted", "count", "higher", 0},
	{"webapi.admission_queued", "count", "lower", 0},
	{"webapi.shed_total", "count", "lower", 0},
	{"webapi.non2xx_total", "count", "lower", 0},
	// ladder: self time per scripted search
	{"text.analyze_us", "us", "lower", 0},
	{"search.kernel_us", "us", "lower", 0},
	{"search.engine_us", "us", "lower", 0},
	{"search.fanout_us", "us", "lower", 0},
	{"feedback.expand_us", "us", "lower", 0},
	{"retrieval.cache_us", "us", "lower", 0},
	{"core.session_us", "us", "lower", 0},
	{"webapi.search_us", "us", "lower", 0},
	{"webapi.search_allocs", "count", "lower", 0},
	{"client.http_us", "us", "lower", 0},
	{"client.http_allocs", "count", "lower", 0},
	{"router.hop_us", "us", "lower", 0},
	{"router.hop_allocs", "count", "lower", 0},
	{"distrib.scatter_us", "us", "lower", 0},
	{"distrib.codec_us", "us", "lower", 0},
	{"distrib.frame_bytes", "B", "lower", 0},
	// ladder: write path, per call
	{"core.observe_us", "us", "lower", 0},
	{"core.codec_us", "us", "lower", 0},
	{"core.state_bytes", "B", "lower", 0},
	{"sessionstore.put_us", "us", "lower", 0},
	// set-up, measured once in the harness
	{"synth.generate_s", "s", "lower", 0},
	{"store.save_s", "s", "lower", 0},
	{"store.load_s", "s", "lower", 0},
	{"index.build_s", "s", "lower", 0},
	// the traced run itself
	{"ladder.search_share", "ratio", "higher", 0},
	{"client.search_p99_ms", "ms", "lower", 0},
	{"client.events_p99_ms", "ms", "lower", 0},
	{"client.search_mean_1c_us", "us", "lower", 0},
	{"unattributed_us", "us", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}

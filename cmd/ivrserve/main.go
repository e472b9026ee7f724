// Command ivrserve hosts the adaptive retrieval system as a versioned
// HTTP/JSON service — the backend a desktop or iTV front-end talks to
// via /api/v1 (see internal/webapi for the route table and
// internal/client for the typed Go SDK).
//
// Usage:
//
//	ivrserve                                  # tiny archive on :8080
//	ivrserve -addr :9090 -preset combined -full
//	ivrserve -archive archive.ivrarc          # serve a saved archive
//	ivrserve -session-ttl 30m -max-sessions 10000
//	ivrserve -segments 8 -search-cache 65536  # fan-out + result cache sizing
//	ivrserve -segment-addrs http://h1:8091,http://h2:8092
//	                                          # distributed: scatter/gather over
//	                                          # remote ivrsegment processes
//	ivrserve -segment-addrs 'http://h1a:8091|http://h1b:8091,http://h2a:8092|http://h2b:8092'
//	                                          # replicated: | joins twin replicas of
//	                                          # one group; failed RPCs fail over
//	ivrserve -topology topo.json -topology-watch 2s -hedge-after 30ms -probe-interval 2s
//	                                          # replica topology from a descriptor
//	                                          # file, hot-reloaded on change (or via
//	                                          # POST /api/v1/admin/topology), slow
//	                                          # RPCs hedged to the twin
//	ivrserve -session-store sessions.jnl -replica-id r1
//	                                          # durable sessions: write-through to a
//	                                          # crash-safe journal, shareable with
//	                                          # sibling replicas behind ivrroute
//
// Example exchange:
//
//	curl -s -X POST localhost:8080/api/v1/sessions \
//	     -d '{"user_id":"alice","interests":{"sports":0.9}}'
//	curl -s 'localhost:8080/api/v1/search?session=SID&q=cup+final&limit=5'
//	curl -s -X POST localhost:8080/api/v1/events -d '{"session_id":"SID",
//	     "events":[{"action":"click_keyframe","shot":"v0001_s003","rank":0,
//	                "session":"SID","t":"2008-01-01T12:00:00Z","topic":-1}]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/overload"
	"repro/internal/sessionstore"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tier"
	"repro/internal/webapi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ivrserve: ")
	common := tier.RegisterFlags(flag.CommandLine, ":8080")
	common.RegisterAdmission(flag.CommandLine)
	var (
		preset      = flag.String("preset", "combined", "system preset: baseline, profile, implicit, combined")
		archPath    = flag.String("archive", "", "saved archive (.ivrarc) to serve; default generates one")
		seed        = flag.Int64("seed", 2008, "generation seed when no -archive is given")
		full        = flag.Bool("full", false, "generate the full-scale archive")
		depth       = flag.Int("depth", 200, "ranking depth per query (bounds search pagination)")
		sessionTTL  = flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle this long (0 disables)")
		maxSessions = flag.Int("max-sessions", 0, "cap on live sessions (0 = unbounded)")
		segments    = flag.Int("segments", 0, "index segments scored in parallel (0 = one per CPU, 1 = sequential)")
		searchCache = flag.Int("search-cache", 4096, "evidence-keyed result cache entries (0 disables)")
		segAddrs    = flag.String("segment-addrs", "", "comma-separated ivrsegment base URLs; | joins replicas of one group ('http://a|http://a2,http://b'); enables the distributed scatter/gather tier")
		topoPath    = flag.String("topology", "", "replica topology descriptor file (JSON; see LOADTEST.md); alternative to -segment-addrs")
		topoWatch   = flag.Duration("topology-watch", 2*time.Second, "poll the -topology file for changes this often and hot-reload it (0 disables)")
		segTimeout  = flag.Duration("segment-timeout", distrib.DefaultRPCTimeout, "per-segment RPC deadline in distributed mode")
		hedgeAfter  = flag.Duration("hedge-after", 0, "hedge a segment RPC to a twin replica after this latency budget (0 disables)")
		probeEvery  = flag.Duration("probe-interval", 2*time.Second, "health-probe replicas this often in replicated mode (0 disables)")
		sessStore   = flag.String("session-store", "", "journal file for durable sessions (empty = in-memory only); share one path between replicas behind ivrroute")
		sessSync    = flag.Duration("session-sync", 100*time.Millisecond, "journal fsync batching interval (0 = fsync every write)")
		replicaID   = flag.String("replica-id", "", "replica name stamped on responses (X-IVR-Replica) and reported to the front tier")
		retryRatio  = flag.Float64("retry-budget", 0.1, "hedge/failover token earn rate per primary segment RPC (0 = unlimited)")
		retryBurst  = flag.Int("retry-burst", 64, "hedge/failover token bucket burst capacity")
		brkFails    = flag.Int("breaker-failures", 5, "consecutive RPC failures that trip a replica's circuit breaker open (0 disables breakers)")
		brkCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before probing half-open")
		degraded    = flag.Bool("degraded", true, "distributed mode: answer partial (degraded) pages from the segments that responded instead of failing the whole query")
	)
	flag.Parse()
	tier.StartPprof("ivrserve", common.PprofAddr)

	cfg, err := core.Preset(*preset)
	if err != nil {
		log.Fatalf("%v", err)
	}
	cfg.K = *depth
	if *segments < 0 || *searchCache < 0 {
		log.Fatalf("-segments and -search-cache must be >= 0")
	}
	cfg.Segments = *segments
	if cfg.Segments == 0 {
		cfg.Segments = runtime.GOMAXPROCS(0)
	}
	cfg.CacheSize = *searchCache
	var arch *synth.Archive
	if *archPath != "" {
		arch, err = store.Load(*archPath)
		if err != nil {
			log.Fatalf("load archive: %v", err)
		}
	} else {
		acfg := synth.TinyConfig()
		if *full {
			acfg = synth.DefaultConfig()
		}
		arch, err = synth.Generate(acfg, *seed)
		if err != nil {
			log.Fatalf("generate: %v", err)
		}
	}
	// Single-process by default; -segment-addrs swaps the local index
	// for the scatter/gather merge tier over remote ivrsegment
	// processes. The result cache, session manager and /api/v1 surface
	// are identical either way — and so are the rankings, which is
	// what the distributed parity tests pin.
	var sys *core.System
	var cluster *distrib.Cluster
	if *segAddrs != "" || *topoPath != "" {
		if *segAddrs != "" && *topoPath != "" {
			log.Fatalf("-segment-addrs and -topology are mutually exclusive")
		}
		var desc *distrib.TopologyDesc
		if *topoPath != "" {
			data, rerr := os.ReadFile(*topoPath)
			if rerr != nil {
				log.Fatalf("read topology: %v", rerr)
			}
			desc, err = distrib.ParseTopology(data)
			if err != nil {
				log.Fatalf("topology %s: %v", *topoPath, err)
			}
		} else {
			desc, err = distrib.ParseAddrGroups(*segAddrs)
			if err != nil {
				log.Fatalf("-segment-addrs: %v", err)
			}
		}
		opts := []distrib.Option{
			distrib.WithTimeout(*segTimeout),
			distrib.WithHedge(*hedgeAfter),
			distrib.WithProbeInterval(*probeEvery),
			distrib.WithRetryBudget(*retryRatio, *retryBurst),
			distrib.WithBreaker(*brkFails, *brkCooldown),
		}
		if *degraded {
			opts = append(opts, distrib.WithDegraded())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cluster, err = distrib.ConnectTopology(ctx, desc, opts...)
		cancel()
		if err != nil {
			log.Fatalf("connect segment servers: %v", err)
		}
		defer cluster.Close()
		if cluster.NumDocs() != arch.Collection.NumShots() {
			log.Fatalf("segment servers index %d shots, local archive has %d (mismatched -seed/-full/-archive?)",
				cluster.NumDocs(), arch.Collection.NumShots())
		}
		// Scores come from the backends while shot metadata and query
		// expansion read the local collection — refuse to mix archives
		// (same shot count or even same IDs is not enough).
		if cluster.SourceHash() != distrib.CollectionSourceHash(arch.Collection) {
			log.Fatalf("segment servers were built from a different archive than this server's (mismatched -seed/-full/-archive)")
		}
		// Scatter every segment RPC of a query concurrently: remote
		// scoring is IO-bound, so the worker bound is the segment
		// count, not the CPU count.
		sys, err = core.NewSystem(cluster.NewEngine(nil, cluster.NumSegments()), arch.Collection, cfg)
		if err == nil {
			sys.SetBackendTelemetry(cluster.BackendSummaries)
			sys.SetRetryBudgetTelemetry(cluster.RetryBudget)
		}
	} else {
		sys, err = core.NewSystemFromCollection(arch.Collection, cfg)
	}
	if err != nil {
		log.Fatalf("system: %v", err)
	}
	opts := []webapi.Option{
		webapi.WithLogger(common.Logger()),
		webapi.WithSessionTTL(*sessionTTL),
		webapi.WithMaxSessions(*maxSessions),
		webapi.WithReplicaID(*replicaID),
		webapi.WithSlowQuery(common.SlowQuery),
		webapi.WithAdmission(overload.AdmissionFromFlags(common.AdmissionLimit, common.AdmissionQueue, common.AdmissionTarget)),
	}
	if cluster != nil {
		// Live topology administration: GET/POST /api/v1/admin/topology,
		// plus hot-reload of the descriptor file when one was given.
		opts = append(opts, webapi.WithTopologyAdmin(cluster))
		if *topoPath != "" && *topoWatch > 0 {
			stopWatch := cluster.WatchTopologyFile(*topoPath, *topoWatch, func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ivrserve: "+format+"\n", args...)
			})
			defer stopWatch()
		}
	}
	// -session-store makes sessions durable: every touched session is
	// written through to a crash-safe journal, so a restart (or a
	// sibling replica sharing the path) resumes mid-study sessions
	// with bit-identical evidence state.
	var journal *sessionstore.JournalStore
	if *sessStore != "" {
		journal, err = sessionstore.OpenJournal(*sessStore, sessionstore.WithSyncInterval(*sessSync))
		if err != nil {
			log.Fatalf("open session store: %v", err)
		}
		defer journal.Close()
		opts = append(opts, webapi.WithSessionStore(journal))
	}
	srv, err := webapi.NewServer(sys, opts...)
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	defer srv.Close()

	if cluster != nil {
		fmt.Printf("ivrserve: %s system over %d shots, /api/v1 on %s (session ttl %s, %d remote segments over %d backends, cache %d)\n",
			*preset, arch.Collection.NumShots(), common.Addr, *sessionTTL, cluster.NumSegments(), len(cluster.Backends()), cfg.CacheSize)
	} else {
		fmt.Printf("ivrserve: %s system over %d shots, /api/v1 on %s (session ttl %s, %d index segments, cache %d)\n",
			*preset, arch.Collection.NumShots(), common.Addr, *sessionTTL, cfg.Segments, cfg.CacheSize)
	}

	// Drain before shutdown: new session work answers 503 + Retry-After
	// (so a front tier re-routes immediately) and every live session is
	// flushed to the store — then in-flight requests finish.
	err = tier.Serve("ivrserve", common.Addr, srv.Handler(), func() {
		if flushed, err := srv.BeginDrain(); err != nil {
			fmt.Fprintf(os.Stderr, "ivrserve: drain: %v\n", err)
		} else if journal != nil {
			fmt.Printf("ivrserve: drained, %d sessions flushed to %s\n", flushed, *sessStore)
		}
	})
	if err != nil {
		log.Fatalf("%v", err)
	}
}

// Command ivrroute is the session-affine front tier: a thin proxy
// that rendezvous-hashes session IDs over N ivrserve replicas sharing
// one session store and one segment tier (internal/router).
//
// Usage:
//
//	ivrroute -replicas http://localhost:8081,http://localhost:8082
//	ivrroute -addr :8080 -replicas ... -probe-interval 500ms
//
// Clients talk to the router exactly as they would to a single
// ivrserve: the /api/v1 surface is unchanged. Every request for a
// session lands on the same replica while it is healthy; when a
// replica dies or drains, its sessions deterministically move to the
// next replica in rendezvous order, which restores them from the
// shared session store (-session-store on each ivrserve).
//
// Replica health comes from the stack's one prober (overload.Prober,
// shared with ivrserve's segment cluster): a GET of each replica's
// /api/v1/healthz at start and then every -probe-interval, bounded by
// 2s; three consecutive failures take a replica out of rotation and
// one healthy answer brings it back.
//
// The router's own /api/v1/healthz aggregates replica liveness and
// /api/v1/metrics reports per-replica request/error/re-route counters.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/router"
	"repro/internal/tier"
)

// splitAddrs parses the -replicas list.
func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ivrroute: ")
	common := tier.RegisterFlags(flag.CommandLine, ":8080")
	var (
		replicas      = flag.String("replicas", "", "comma-separated ivrserve base URLs (required)")
		probeInterval = flag.Duration("probe-interval", router.DefaultProbeInterval, "health poll cadence")
		deadline      = flag.Duration("deadline", router.DefaultSearchDeadline, "X-IVR-Deadline budget minted for search requests arriving without one (negative disables minting; inbound budgets are always enforced)")
	)
	flag.Parse()
	tier.StartPprof("ivrroute", common.PprofAddr)
	if *replicas == "" {
		log.Fatalf("-replicas is required (e.g. -replicas http://localhost:8081,http://localhost:8082)")
	}

	rt, err := router.New(router.Config{
		Replicas:       splitAddrs(*replicas),
		ProbeInterval:  *probeInterval,
		SlowQuery:      common.SlowQuery,
		Logger:         common.Logger(),
		SearchDeadline: *deadline,
	})
	if err != nil {
		log.Fatalf("%v", err)
	}
	defer rt.Close()

	fmt.Printf("ivrroute: front tier on %s over %d replicas (%s)\n",
		common.Addr, len(splitAddrs(*replicas)), *replicas)
	if err := tier.Serve("ivrroute", common.Addr, rt, nil); err != nil {
		log.Fatalf("%v", err)
	}
}

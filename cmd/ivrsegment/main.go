// Command ivrsegment hosts index segments as a standalone process
// behind the /rpc/v1 segment RPC surface — the storage/scoring tier of
// the distributed topology. An ivrserve merge tier started with
// -segment-addrs scatters queries over a set of ivrsegment processes
// and gathers their partial top-k lists; rankings are bit-identical to
// a single-process ivrserve over the same archive.
//
// Every ivrsegment of one topology must be started from the same
// archive (same -archive, or same -seed/-full) and the same -segments
// count; the merge tier verifies both via a collection hash before
// serving. -host picks which segment ordinals this process scores, so
// a 4-segment topology can be split 2x2:
//
//	ivrsegment -addr :8091 -segments 4 -host 0,1
//	ivrsegment -addr :8092 -segments 4 -host 2,3
//	ivrserve   -segment-addrs http://localhost:8091,http://localhost:8092
//
// Replication is the same recipe run twice: start a second ivrsegment
// with identical -segments/-host arguments on another port and list it
// as a `|`-separated twin (or as another entry in the group's replicas
// array of a -topology descriptor). The merge tier health-probes the
// twins, fails over on error, and optionally hedges slow RPCs:
//
//	ivrsegment -addr :8093 -segments 4 -host 0,1   # twin of :8091
//	ivrsegment -addr :8094 -segments 4 -host 2,3   # twin of :8092
//	ivrserve   -segment-addrs 'http://localhost:8091|http://localhost:8093,http://localhost:8092|http://localhost:8094'
//
// Routes (all JSON; errors use the /api/v1 envelope):
//
//	GET  /rpc/v1/stats     topology + full per-term statistics
//	POST /rpc/v1/search    score one hosted segment
//	GET  /rpc/v1/healthz   liveness
//	GET  /rpc/v1/metrics   per-route telemetry snapshot (?format=prometheus for text exposition)
//	GET  /metrics          Prometheus text exposition alias for scrapers
//	GET  /rpc/v1/debug/traces  recent span trees from the trace ring
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/overload"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tier"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ivrsegment: ")
	common := tier.RegisterFlags(flag.CommandLine, ":8091")
	common.RegisterAdmission(flag.CommandLine)
	var (
		archPath = flag.String("archive", "", "saved archive (.ivrarc) to index; default generates one")
		seed     = flag.Int64("seed", 2008, "generation seed when no -archive is given")
		full     = flag.Bool("full", false, "generate the full-scale archive")
		segments = flag.Int("segments", 2, "total segment count of the topology (same on every server)")
		host     = flag.String("host", "", "comma-separated segment ordinals to host (default: all)")
	)
	flag.Parse()
	tier.StartPprof("ivrsegment", common.PprofAddr)

	if *segments < 1 {
		log.Fatalf("-segments must be >= 1")
	}
	hosted, err := parseOrdinals(*host)
	if err != nil {
		log.Fatalf("%v", err)
	}
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
	sh, err := core.BuildShardedIndex(arch.Collection, nil, *segments)
	if err != nil {
		log.Fatalf("index: %v", err)
	}
	srv, err := distrib.NewSegmentServer(distrib.ServerConfig{
		Sharded:    sh,
		Hosted:     hosted,
		SourceHash: distrib.CollectionSourceHash(arch.Collection),
		SlowQuery:  common.SlowQuery,
		Logger:     common.Logger(),
		Admission:  overload.AdmissionFromFlags(common.AdmissionLimit, common.AdmissionQueue, common.AdmissionTarget),
	})
	if err != nil {
		log.Fatalf("server: %v", err)
	}

	fmt.Printf("ivrsegment: hosting segments %v of %d (%d shots total), /rpc/v1 on %s\n",
		srv.Hosted(), *segments, arch.Collection.NumShots(), common.Addr)
	if err := tier.Serve("ivrsegment", common.Addr, srv.Handler(), nil); err != nil {
		log.Fatalf("%v", err)
	}
}

// parseOrdinals parses the -host list ("0,2,3"); empty means all.
func parseOrdinals(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -host entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

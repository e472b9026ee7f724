// Command ivrsim runs a simulated user study and writes the
// interaction log, the paper's proposed evaluation methodology as a
// shell tool.
//
// Usage:
//
//	ivrsim -out study.jsonl                      # default: 3 users x 6 topics, desktop
//	ivrsim -iface tv -users 5 -iterations 4
//	ivrsim -preset combined -out study.jsonl     # adaptive system under study
//	ivrsim -server http://localhost:8080         # same study, remotely over /api/v1
//
// With -server the study runs against a live ivrserve instance
// through the SDK (internal/loadgen): the same session loop, with
// sessions executing concurrently over HTTP, and a per-endpoint
// latency report after the retrieval metrics. A server started with
// the same -seed/-full and -preset and with -depth 100 (the in-process
// ranking depth) reproduces the local study event for event; -preset
// is the server's choice in that mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ilog"
	"repro/internal/loadgen"
	"repro/internal/simulation"
	"repro/internal/synth"
	"repro/internal/ui"
)

func main() {
	var (
		out        = flag.String("out", "study.jsonl", "interaction log output path")
		ifaceName  = flag.String("iface", "desktop", "interface: desktop or tv")
		preset     = flag.String("preset", "combined", "system preset: baseline, profile, implicit, combined")
		users      = flag.Int("users", 3, "number of simulated users")
		topics     = flag.Int("topics", 6, "number of evaluation topics (0 = all)")
		iterations = flag.Int("iterations", 3, "query iterations per session")
		seed       = flag.Int64("seed", 2008, "seed")
		full       = flag.Bool("full", false, "use the full-scale archive")
		runOut     = flag.String("run", "", "also write a TREC run file of final rankings")
		qrelsOut   = flag.String("qrels", "", "also write the matching TREC qrels file")
		server     = flag.String("server", "", "run the study remotely against this /api/v1 server")
		workers    = flag.Int("workers", 8, "concurrent sessions in -server mode")
	)
	flag.Parse()

	iface, err := ui.ByName(*ifaceName)
	if err != nil {
		fail("%v", err)
	}
	archCfg := synth.TinyConfig()
	if *full {
		archCfg = synth.DefaultConfig()
	}
	arch, err := synth.Generate(archCfg, *seed)
	if err != nil {
		fail("generate: %v", err)
	}
	topicSet := arch.Truth.SearchTopics
	if *topics > 0 && *topics < len(topicSet) {
		topicSet = topicSet[:*topics]
	}
	pairs := simulation.AllPairs(simulation.MakeUsers(*users), topicSet)
	var (
		study  *simulation.StudyResult
		rep    *loadgen.Report
		system = *preset
	)
	if *server != "" {
		study, rep = runRemote(*server, *workers, arch, iface, pairs, *iterations, *seed)
		system = fmt.Sprintf("%s (%d workers)", *server, *workers)
	} else {
		cfg, err := core.Preset(*preset)
		if err != nil {
			fail("%v", err)
		}
		sys, err := core.NewSystemFromCollection(arch.Collection, cfg)
		if err != nil {
			fail("system: %v", err)
		}
		if study, err = simulation.RunStudyPairs(arch, sys, iface, pairs, *iterations, *seed); err != nil {
			fail("study: %v", err)
		}
	}
	if err := ilog.SaveFile(*out, study.Events); err != nil {
		fail("save: %v", err)
	}
	if *runOut != "" {
		tag := *preset
		if rep != nil {
			tag = "remote"
		}
		writeRunFile(*runOut, study.ToRun(tag))
	}
	if *qrelsOut != "" {
		writeQrelsFile(*qrelsOut, study.ToQrels(arch.Truth.Qrels))
	}
	imp, exp, q := ilog.MeanEventsPerSession(ilog.AnalyzeSessions(study.Events))
	fmt.Printf("study complete: %d sessions, %d events -> %s\n", len(study.Sessions), len(study.Events), *out)
	fmt.Printf("  system:     %s on %s\n", system, iface.Name)
	fmt.Printf("  per session: %.1f implicit, %.1f explicit, %.1f queries\n", imp, exp, q)
	fmt.Printf("  MAP first iteration: %.3f   final: %.3f\n", study.MeanFirst.AP, study.MeanFinal.AP)
	fmt.Printf("  mean distinct shots examined: %.1f\n", study.MeanDistinctSeen)
	if rep != nil {
		fmt.Print(rep)
		if rep.SessionsFailed > 0 {
			fail("%d sessions failed", rep.SessionsFailed)
		}
	}
}

// writeRunFile / writeQrelsFile export TREC files for both study
// modes.
func writeRunFile(path string, run *eval.Run) {
	f, err := os.Create(path)
	if err != nil {
		fail("run file: %v", err)
	}
	if err := eval.WriteRun(f, run); err != nil {
		f.Close()
		fail("run file: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("run file: %v", err)
	}
	fmt.Printf("  run file:   %s\n", path)
}

func writeQrelsFile(path string, qs eval.QrelSet) {
	f, err := os.Create(path)
	if err != nil {
		fail("qrels file: %v", err)
	}
	if err := eval.WriteQrels(f, qs); err != nil {
		f.Close()
		fail("qrels file: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("qrels file: %v", err)
	}
	fmt.Printf("  qrels file: %s\n", path)
}

// runRemote runs the study through the SDK against a live server —
// the paper's simulated methodology as a closed-loop HTTP workload.
func runRemote(server string, workers int, arch *synth.Archive, iface *ui.Interface,
	pairs []simulation.StudyPair, iterations int, seed int64) (*simulation.StudyResult, *loadgen.Report) {

	c, err := client.New(server, client.WithTimeout(30*time.Second), client.WithUserAgent("ivrsim/1"))
	if err != nil {
		fail("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if _, err := c.Healthz(ctx); err != nil {
		fail("server %s not healthy: %v", server, err)
	}
	study, rep, err := loadgen.RunStudy(ctx, loadgen.StudyConfig{
		Client:     c,
		Workers:    workers,
		Iterations: iterations,
		Iface:      iface,
		Archive:    arch,
		Seed:       seed,
	}, pairs)
	if err != nil {
		fail("remote study: %v", err)
	}
	return study, rep
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ivrsim: "+format+"\n", args...)
	os.Exit(1)
}

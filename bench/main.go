// Command bench is the repository's one benchmark: adapted-search
// iterations driven through the real ivrroute / ivrserve / ivrsegment
// binaries on loopback, four named workloads, every ranking checked
// against an in-process oracle, plus an outside-in ladder that splits
// client-observed latency into per-layer lines. See README.md for the
// metric glossary and BENCHMARK.json (repo root) for the contract.
//
//	bash bench/run.sh                          # all four workloads, one set
//	bash bench/run.sh -workload serve.adapt    # one workload
//	bash bench/run.sh -trace 1                 # traced run: spans + ladder
//	bash bench/run.sh -sets 3 -out a.json      # three sets back to back
//	bash bench/run.sh -compare a.json b.json   # verdict table
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 2008, "archive and script seed")
		seconds      = flag.Int("seconds", 10, "measured window per workload, seconds")
		traceMode    = flag.Int("trace", 0, "1 = traced run (spans, ladder, per-layer metrics) instead of the timed run")
		sets         = flag.Int("sets", 1, "run this many complete sets back to back and print their spread")
		out          = flag.String("out", "", "results file (default bench/out/results.json)")
		compare      = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
		corrupt      = flag.Bool("corrupt-oracle", false, "corrupt the oracle's expectations; the run must fail (acceptance check)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", flag.Args())
		return 2
	}
	if *seconds < 1 || *sets < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -sets must be >= 1, -trace 0 or 1")
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		wl, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{wl}
	}

	repoRoot, err := findRepoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	// Every exit path reaps the server processes: normal return, error,
	// SIGINT/SIGTERM (context cancel unwinds the run) and panic.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer func() {
		killAll()
		if p := recover(); p != nil {
			panic(p)
		}
	}()

	info := collectEnv(repoRoot, *seed, *seconds)
	fmt.Printf("bench: nproc %d  GOMAXPROCS %d  %s  cpu %q  commit %s  load1 %.2f\n",
		info.NProc, info.GOMAXPROCS, info.GoVersion, info.CPUModel, info.GitCommit, info.Load1)
	if info.Load1 > 1.0 {
		fmt.Printf("bench: WARNING: 1-min load average %.2f is above 1.0; timings will be noisy\n", info.Load1)
	}

	env, err := newRunEnv(ctx, repoRoot, benchCorpus(), *seed, time.Duration(*seconds)*time.Second, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer env.close()
	info.BuildS = env.buildS
	env.corruptOracle = *corrupt

	file := resultsFile{Env: info}
	ok := true
	for s := 0; s < *sets; s++ {
		set := make(map[string]*workloadResult)
		for _, wl := range selected {
			res, err := env.runWorkload(ctx, wl, *traceMode == 1)
			if err != nil {
				// An invalid run reports no numbers at all.
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			set[wl.Name] = res
			ok = ok && res.Correct
		}
		// The same script through two topologies must rank identically.
		if a, b := set["serve.adapt"], set["tiers.adapt"]; a != nil && b != nil && !a.Traced {
			n := min(a.DigestSessions, b.DigestSessions)
			if n == digestSessions && a.Digest != b.Digest {
				fmt.Fprintf(os.Stderr, "bench: invalid run: ranking_digest differs between serve.adapt (%s) and tiers.adapt (%s)\n", a.Digest, b.Digest)
				return 1
			}
		}
		file.Sets = append(file.Sets, set)
	}
	path := *out
	if path == "" {
		path = filepath.Join(env.outDir, "results.json")
	}
	if err := file.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresults -> %s\n", path)
	if *sets > 1 {
		printSpread(os.Stdout, &file)
	}

	// The last line of standard output is the driver's result object.
	// With one workload it is that workload's; with several, the totals
	// and every metric prefixed by its workload.
	if err := printResultLine(os.Stdout, file.Sets[len(file.Sets)-1], selected, *traceMode == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// findRepoRoot locates the checkout root: the harness runs from bench/
// (go run -C bench) or from the root itself.
func findRepoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ivrserve", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("cannot find the repository root (cmd/ivrserve and bench/go.mod) from %s", wd)
}

// envInfo is recorded in every results file so two files can be told
// apart before they are compared.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"window_seconds"`
	Load1      float64 `json:"load1_at_start"`
	BuildS     float64 `json:"build_s"`
	Clients    int     `json:"clients"`
	Started    string  `json:"started"`
}

func collectEnv(repoRoot string, seed int64, seconds int) envInfo {
	info := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitCommit: "unknown", Seed: seed, Seconds: seconds, Clients: numClients,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
				info.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" is fine.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = repoRoot
	if outb, err := cmd.Output(); err == nil {
		info.GitCommit = strings.TrimSpace(string(outb))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			info.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return info
}

// resultsFile is bench/out/results.json: the environment and one
// entry per set, each mapping workload name to its result.
type resultsFile struct {
	Env  envInfo                      `json:"env"`
	Sets []map[string]*workloadResult `json:"sets"`
}

func (f *resultsFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no sets", path)
	}
	return &f, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine writes the one JSON object the driver reads.
func printResultLine(w io.Writer, set map[string]*workloadResult, selected []workload, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metricValue)}
	for _, wl := range selected {
		res := set[wl.Name]
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, d := range defs {
			name := d.Name
			if len(selected) > 1 {
				name = wl.Name + "/" + d.Name
			}
			line.Metrics[name] = metricValue{Value: res.Metrics[d.Name], Unit: d.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

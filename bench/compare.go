package main

import (
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per end-to-end metric x workload.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the -compare table. A is the base (parent),
// B the candidate.
type comparison struct {
	Workload, Metric, Unit string
	A, B                   summary
	// Delta is (B-A)/A as measured; Worse is the same ratio signed so
	// that positive means B is worse, whatever the metric's direction.
	Delta, Worse float64
	Bound        float64
	Verdict      string
}

type summary struct {
	N           int
	Q1, Med, Q3 float64
	Spread      float64 // (Q3-Q1)/median
}

func summarize(values []float64) summary {
	q1, q2, q3 := quartiles(values)
	return summary{N: len(values), Q1: q1, Med: q2, Q3: q3, Spread: spreadShare(values)}
}

// judge applies the acceptance rule to one metric: the sets' own spread
// must resolve the bound before anything is claimed either way; B may
// then be worse than A by at most the bound; and it counts as improved
// only when it beats A by more than both sides' own spread.
func judge(d metricDef, a, b []float64) (delta, worse float64, verdict string) {
	sa, sb := summarize(a), summarize(b)
	if sa.Med != 0 {
		delta = (sb.Med - sa.Med) / sa.Med
	}
	worse = delta
	if d.Better == "higher" {
		worse = -delta
	}
	noise := max(sa.Spread, sb.Spread)
	switch {
	case sa.N == 0 || sb.N == 0:
		verdict = verdictUnresolved
	case noise > d.Bound:
		verdict = verdictUnresolved
	case worse > d.Bound:
		verdict = verdictRegressed
	case -worse > noise && worse < 0:
		verdict = verdictImproved
	default:
		verdict = verdictUnchanged
	}
	return delta, worse, verdict
}

// values collects one metric of one workload across a file's sets.
func (f *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, set := range f.Sets {
		if res := set[workload]; res != nil {
			if v, ok := res.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func compareResults(a, b *resultsFile) []comparison {
	var rows []comparison
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			row := comparison{Workload: wl.Name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
				A: summarize(va), B: summarize(vb)}
			row.Delta, row.Worse, row.Verdict = judge(d, va, vb)
			rows = append(rows, row)
		}
	}
	return rows
}

// exactMismatches lists the workloads whose exact-repeat values differ
// between (or within) the files: ranking_digest and failed operations.
// These are counts, not timings; any difference is a finding.
func exactMismatches(a, b *resultsFile) []string {
	var out []string
	sameSeed := a.Env.Seed == b.Env.Seed && a.Env.Seconds == b.Env.Seconds
	for _, wl := range workloads {
		digests := map[string]bool{}
		for _, f := range []*resultsFile{a, b} {
			for _, set := range f.Sets {
				res := set[wl.Name]
				if res == nil || res.Traced {
					continue
				}
				if res.Failed != 0 || !res.Correct {
					out = append(out, fmt.Sprintf("%s: %d failed operations (correct=%v)", wl.Name, res.Failed, res.Correct))
				}
				if res.DigestSessions == digestSessions {
					digests[res.Digest] = true
				}
			}
		}
		if sameSeed && len(digests) > 1 {
			out = append(out, fmt.Sprintf("%s: ranking_digest does not repeat across runs of seed %d", wl.Name, a.Env.Seed))
		}
	}
	return out
}

func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "%-14s %-14s %-4s | %-32s | %-32s | %-18s %6s  %s\n",
		"workload", "metric", "unit", "A: median [q1, q3] (n)", "B: median [q1, q3] (n)", "delta (B-A)/A", "bound", "verdict")
	for _, r := range rows {
		cell := func(s summary) string {
			return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Med, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(w, "%-14s %-14s %-4s | %-32s | %-32s | %+7.2f%% of %-7.4g %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit, cell(r.A), cell(r.B), 100*r.Delta, r.A.Med, 100*r.Bound, r.Verdict)
	}
}

// compareFiles is -compare: exit code 0 when nothing regressed and
// nothing is unresolved, 1 otherwise.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultsFile
		if b, err = readResults(pathB); err == nil {
			rows := compareResults(a, b)
			printComparison(w, rows)
			bad := 0
			for _, r := range rows {
				if r.Verdict == verdictRegressed || r.Verdict == verdictUnresolved {
					bad++
				}
			}
			for _, m := range exactMismatches(a, b) {
				fmt.Fprintln(w, "exact-repeat violation:", m)
				bad++
			}
			if len(a.Sets) < 3 || len(b.Sets) < 3 {
				fmt.Fprintln(w, "note: fewer than 3 sets say little about a side's own spread; run with -sets 3 or more before trusting a verdict")
			}
			if bad > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// printSpread shows, for a multi-set run, each metric's own run-to-run
// spread against its bound: the benchmark's steadiness, before any
// comparison.
func printSpread(w io.Writer, f *resultsFile) {
	fmt.Fprintf(w, "\nspread over %d sets (interquartile distance / median, against each metric's bound)\n", len(f.Sets))
	for _, wl := range workloads {
		for _, d := range endToEnd {
			v := f.values(wl.Name, d.Name)
			if len(v) == 0 {
				continue
			}
			s := summarize(v)
			note := ""
			if s.Spread > d.Bound {
				note = "  <- wider than the bound"
			}
			fmt.Fprintf(w, "  %-14s %-14s median %-10.4g spread %6.2f%%  bound %3.0f%%%s\n",
				wl.Name, d.Name, s.Med, 100*s.Spread, 100*d.Bound, note)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/synth"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ q, want float64 }{
		{0.50, 5}, {0.99, 10}, {0.90, 9}, {0.10, 1}, {0.05, 1}, {1, 10},
	} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want it back", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The acceptance rule is written in terms of Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
		{[]float64{1, 3, 5, 7}, [3]float64{1.5, 4, 6.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spreadShare = %v, want 1 ((8.25-2.75)/5.5)", s)
	}
}

func TestDigestStability(t *testing.T) {
	recs := []sessionRecord{
		{Ordinal: 0, Pages: []uint64{11, 12, 13}},
		{Ordinal: 1, Pages: []uint64{21, 22}},
	}
	const pinned = uint64(0x60f79cf8fe05704e)
	got := digest(recs)
	if got != digest(recs) {
		t.Fatal("digest is not a pure function of its input")
	}
	if got != pinned {
		t.Errorf("digest = %#x, want the pinned %#x: the fold changed, so digests no longer compare across commits", got, pinned)
	}
	moved := []sessionRecord{
		{Ordinal: 0, Pages: []uint64{11, 12}},
		{Ordinal: 1, Pages: []uint64{13, 21, 22}},
	}
	if digest(moved) == got {
		t.Error("digest ignores which session and iteration a page belongs to")
	}
	recs[1].Pages[1] ^= 1
	if digest(recs) == got {
		t.Error("digest ignores a one-bit change of a page")
	}
	p := page{Step: 1, Candidates: 3, Total: 3, Hits: []pageHit{{"a", 1.5}, {"b", 1.25}}}
	q := page{Step: 1, Candidates: 3, Total: 3, Hits: []pageHit{{"a", 1.5}, {"b", math.Nextafter(1.25, 2)}}}
	if p.hash(0) == q.hash(0) {
		t.Error("page hash ignores the last bit of a score")
	}
	if p.hash(0) == p.hash(20) {
		t.Error("page hash ignores the offset")
	}
}

func TestScriptDeterminism(t *testing.T) {
	for _, kind := range []string{scriptWarm, scriptAdapt, scriptWrite} {
		a, err := newScript(kind, 2008, 100)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newScript(kind, 2008, 100)
		c, _ := newScript(kind, 2009, 100)
		if !bytes.Equal(a.bytes(300), b.bytes(300)) {
			t.Errorf("%s: same seed produced different script bytes", kind)
		}
		if bytes.Equal(a.bytes(300), c.bytes(300)) {
			t.Errorf("%s: different seeds produced identical script bytes", kind)
		}
		// Every topic appears once per cycle of ordinals.
		seen := map[int]bool{}
		for ord := uint64(0); ord < 100; ord++ {
			seen[a.plan(ord).Topic] = true
		}
		if len(seen) != 100 {
			t.Errorf("%s: first 100 ordinals cover %d topics, want 100", kind, len(seen))
		}
	}
	if _, err := newScript("nope", 1, 10); err == nil {
		t.Error("unknown script kind accepted")
	}
	// tiers.adapt must replay serve.adapt's script byte for byte.
	sa, _ := findWorkload("serve.adapt")
	ta, _ := findWorkload("tiers.adapt")
	x, _ := newScript(sa.Script, 7, 100)
	y, _ := newScript(ta.Script, 7, 100)
	if !bytes.Equal(x.bytes(200), y.bytes(200)) {
		t.Error("serve.adapt and tiers.adapt scripts differ")
	}
	// Shapes the workload definitions promise.
	adapt := x.plan(5)
	if len(adapt.Iters) != adaptIterations || x.searchesPerSession() != 4 {
		t.Errorf("adapt plan: %d iterations, %d searches", len(adapt.Iters), x.searchesPerSession())
	}
	for _, it := range adapt.Iters {
		for _, op := range it.Ops {
			if op.Kind == opEvents && len(op.Events) != 6 {
				t.Errorf("adapt batch has %d events, want 6", len(op.Events))
			}
		}
	}
	w, _ := newScript(scriptWrite, 7, 100)
	batches, events := 0, 0
	for _, it := range w.plan(3).Iters {
		for _, op := range it.Ops {
			if op.Kind == opEvents {
				batches++
				events += len(op.Events)
			}
		}
	}
	if batches != 6 || events != 48 || w.searchesPerSession() != 1 {
		t.Errorf("write plan: %d batches, %d events, %d searches", batches, events, w.searchesPerSession())
	}
}

func TestChooseShots(t *testing.T) {
	hits := []pageHit{{"a", 5}, {"b", 4}, {"c", 3}, {"d", 2}, {"e", 1}}
	rel := func(id string) bool { return id == "b" || id == "d" || id == "e" }
	got := chooseShots(hits, 20, rel, []uint32{0, 0, 0})
	if len(got) != 3 {
		t.Fatalf("chose %d shots, want 3", len(got))
	}
	ids := map[string]bool{}
	for _, c := range got {
		if !rel(c.ID) {
			t.Errorf("chose non-relevant %s though three relevant hits were on the page", c.ID)
		}
		if ids[c.ID] {
			t.Errorf("chose %s twice", c.ID)
		}
		ids[c.ID] = true
		if hits[c.Rank-20].ID != c.ID {
			t.Errorf("rank %d does not point at %s", c.Rank, c.ID)
		}
	}
	// Fewer relevant hits than picks: fall back to the whole page.
	one := func(id string) bool { return id == "c" }
	got = chooseShots(hits, 0, one, []uint32{1, 1})
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "c" {
		t.Errorf("fallback chose %v, want b then c", got)
	}
	none := chooseShots(nil, 0, rel, []uint32{1})
	if len(none) != 0 {
		t.Errorf("chose %v from an empty page", none)
	}
	// Events for a missing slot are dropped, untargeted ones kept.
	evs := buildEvents([]eventPlan{{Action: "browse", Slot: -1}, {Action: "click_keyframe", Slot: 1}}, none, "s", 0, 3)
	if len(evs) != 1 || evs[0].ShotID != "" {
		t.Errorf("buildEvents = %+v, want only the untargeted browse", evs)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"search_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"iter_per_s", "1/s", "higher", 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 1.005, center * 0.995}
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(1), steady(1.01), verdictUnchanged},
		{"slower beyond bound", lower, steady(1), steady(1.2), verdictRegressed},
		{"slower within bound", lower, steady(1), steady(1.08), verdictUnchanged},
		{"faster", lower, steady(1), steady(0.8), verdictImproved},
		{"throughput down", higher, steady(1000), steady(850), verdictRegressed},
		{"throughput up", higher, steady(1000), steady(1200), verdictImproved},
		{"throughput up within noise", higher, steady(1000), steady(1005), verdictUnchanged},
		{"noisy base", lower, []float64{1, 1.5, 0.7, 1.3, 0.8}, steady(2), verdictUnresolved},
		{"noisy candidate", lower, steady(1), []float64{1, 1.5, 0.7, 1.3, 0.8}, verdictUnresolved},
		{"missing", lower, steady(1), nil, verdictUnresolved},
	} {
		if _, _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	delta, worse, _ := judge(higher, steady(1000), steady(900))
	if math.Abs(delta+0.1) > 1e-9 || math.Abs(worse-0.1) > 1e-9 {
		t.Errorf("delta %v worse %v, want -0.1 and +0.1: delta is (B-A)/A, worse is signed by direction", delta, worse)
	}

	// The table, end to end, from two results files.
	mk := func(search float64, digestHex string) *resultsFile {
		f := &resultsFile{Env: envInfo{Seed: 1, Seconds: 10}}
		for i := 0; i < 3; i++ {
			f.Sets = append(f.Sets, map[string]*workloadResult{"serve.adapt": {
				Workload: "serve.adapt", Correct: true, Attempted: 10, Digest: digestHex, DigestSessions: digestSessions,
				Metrics: map[string]float64{"search_p50_ms": search * (1 + 0.001*float64(i)), "iter_per_s": 1000},
			}})
		}
		return f
	}
	rows := compareResults(mk(1, "aa"), mk(1.5, "aa"))
	if len(rows) != 2 {
		t.Fatalf("%d rows, want one per metric present (2)", len(rows))
	}
	for _, r := range rows {
		want := verdictUnchanged
		if r.Metric == "search_p50_ms" {
			want = verdictRegressed
		}
		if r.Workload != "serve.adapt" || r.Verdict != want {
			t.Errorf("row %+v: want %s", r, want)
		}
	}
	var out bytes.Buffer
	printComparison(&out, rows)
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "+50.00% of 1.001") {
		t.Errorf("table lacks the verdict or the delta with its base:\n%s", out.String())
	}
	if m := exactMismatches(mk(1, "aa"), mk(1, "bb")); len(m) != 1 {
		t.Errorf("differing digests of one seed: %v, want one violation", m)
	}
	if m := exactMismatches(mk(1, "aa"), mk(1, "aa")); len(m) != 0 {
		t.Errorf("equal digests flagged: %v", m)
	}
}

// BENCHMARK.json is the contract; the Go tables are what the harness
// prints and compares with. They must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d/%d workloads/end_to_end/per_layer, tables have %d/%d/%d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %q", i, doc.Workloads[i], w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for i, d := range endToEnd {
		g := doc.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, table %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for i, d := range perLayer {
		g := doc.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, table %+v", i, g, d)
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}

// TestSmokeAllWorkloads drives all four workloads through real
// processes at TinyConfig scale with 1 s windows: the harness end to
// end (build, spawn, drive, scrape, verify, teardown), not the numbers.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := synth.TinyConfig()
	env, err := newRunEnv(ctx, root, cfg, 12, time.Second, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	env.setupRepeats, env.warmup = 1, 200*time.Millisecond
	digests := map[string]string{}
	for _, wl := range workloads {
		// Eight topics over 170 shots cannot keep adapted searches out
		// of the cache; the regime guard is for the real corpus.
		wl.MinHit, wl.MaxHit = 0, 1
		res, err := env.runWorkload(ctx, wl, false)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", wl.Name, res.Correct, res.Failed, res.Attempted)
		}
		if res.DigestSessions != digestSessions || res.Digest != res.OracleDigest {
			t.Errorf("%s: digest %s over %d sessions, oracle %s", wl.Name, res.Digest, res.DigestSessions, res.OracleDigest)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, every end-to-end metric must be positive on every workload", wl.Name, d.Name, v)
			}
		}
		digests[wl.Name] = res.Digest
		var line bytes.Buffer
		if err := printResultLine(&line, map[string]*workloadResult{wl.Name: res}, []workload{wl}, false); err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal(line.Bytes(), &parsed); err != nil || parsed.Correct == nil ||
			parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %q does not carry exactly the contract's keys (%v)", wl.Name, line.String(), err)
		}
	}
	if digests["serve.adapt"] != digests["tiers.adapt"] {
		t.Errorf("serve.adapt digest %s != tiers.adapt digest %s", digests["serve.adapt"], digests["tiers.adapt"])
	}

	// A deliberately corrupted expectation must fail the run.
	env.corruptOracle = true
	wl, _ := findWorkload("serve.warm")
	res, err := env.runWorkload(ctx, wl, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted oracle: correct=%v failed=%d, want the run to fail", res.Correct, res.Failed)
	}
	if _, err := os.Stat(filepath.Join(env.outDir, "serve.warm.ivrserve.log")); err != nil {
		t.Errorf("server log not kept: %v", err)
	}
}

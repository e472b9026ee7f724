package distrib

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ilog"
	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/synth"
	"repro/internal/text"
)

// buildCorpus builds the same random document stream into one single
// index and one n-segment sharded index (the same generator as
// internal/search's parallel parity tests, so the two suites pin the
// same document space from both sides of the process boundary).
func buildCorpus(t testing.TB, seed int64, docs, segments int) (*index.Index, *index.Sharded) {
	t.Helper()
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
				t.Fatal(err)
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
		t.Fatal(err)
	}
	return sb.Build(), sh
}

// queriesFor draws random multi-term queries from the corpus
// vocabulary (including a term that never matches).
func queriesFor(seed int64, n int) []string {
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

// startTopology splits the sharded build's ordinals round-robin across
// `servers` httptest-hosted segment servers and returns their base
// URLs. Every server is built over the full sharded index (as real
// ivrsegment processes are) but hosts only its assigned ordinals.
func startTopology(t testing.TB, sh *index.Sharded, servers int) []string {
	t.Helper()
	if servers > sh.NumSegments() {
		servers = sh.NumSegments()
	}
	addrs := make([]string, servers)
	for s := 0; s < servers; s++ {
		var hosted []int
		for ord := 0; ord < sh.NumSegments(); ord++ {
			if ord%servers == s {
				hosted = append(hosted, ord)
			}
		}
		srv, err := NewSegmentServer(ServerConfig{Sharded: sh, Hosted: hosted})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		addrs[s] = ts.URL
	}
	return addrs
}

// connectCluster connects to a topology or fails the test.
func connectCluster(t testing.TB, addrs []string, opts ...Option) *Cluster {
	t.Helper()
	c, err := Connect(context.Background(), addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDistributedParity is the tentpole guarantee: rankings from the
// scatter/gather merge tier over httptest-hosted segment servers are
// bit-identical (IDs, scores, global doc ids, candidate counts) to
// both the in-process sharded fan-out and the sequential single-index
// scan, across seeds, scorers, segment counts and K.
func TestDistributedParity(t *testing.T) {
	scorers := []search.Scorer{
		search.BM25{}, search.BM25{K1: 1.6, B: 0.3},
		search.TFIDF{},
		search.DirichletLM{}, search.DirichletLM{Mu: 500},
	}
	for _, seed := range []int64{1, 2008, 77} {
		for _, segments := range []int{2, 3, 5} {
			single, sh := buildCorpus(t, seed, 120, segments)
			addrs := startTopology(t, sh, 2)
			cluster := connectCluster(t, addrs)
			an := text.NewAnalyzer()
			seq := search.NewEngine(single, an)
			par := search.NewShardedEngine(sh, an, 4)
			dist := cluster.NewEngine(an, 4)
			for qi, qt := range queriesFor(seed, 8) {
				for _, scorer := range scorers {
					for _, k := range []int{5, 50, 1000} {
						opts := search.Options{K: k, Scorer: scorer}
						want, err := seq.Search(seq.ParseText(qt), opts)
						if err != nil {
							t.Fatal(err)
						}
						local, err := par.Search(par.ParseText(qt), opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := dist.Search(dist.ParseText(qt), opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed=%d segs=%d q%d=%q scorer=%s k=%d: distributed ranking diverged from sequential\n got %+v\nwant %+v",
								seed, segments, qi, qt, scorer.Name(), k, got.Hits, want.Hits)
						}
						if !reflect.DeepEqual(got, local) {
							t.Fatalf("seed=%d segs=%d q%d=%q scorer=%s k=%d: distributed ranking diverged from in-process fan-out",
								seed, segments, qi, qt, scorer.Name(), k)
						}
					}
				}
			}
		}
	}
}

// TestDistributedFilterParity pins the filtered path: opaque filters
// cannot cross the process boundary, so the merge tier fetches full
// candidate lists and filters before the top-k cut — output must still
// be bit-identical.
func TestDistributedFilterParity(t *testing.T) {
	single, sh := buildCorpus(t, 9, 100, 3)
	addrs := startTopology(t, sh, 2)
	cluster := connectCluster(t, addrs)
	an := text.NewAnalyzer()
	seq := search.NewEngine(single, an)
	dist := cluster.NewEngine(an, 3)
	filter := func(id string) bool { return id[len(id)-1]%2 == 0 }
	for _, qt := range queriesFor(9, 6) {
		want, err := seq.Search(seq.ParseText(qt), search.Options{K: 40, Filter: filter})
		if err != nil {
			t.Fatal(err)
		}
		got, err := dist.Search(dist.ParseText(qt), search.Options{K: 40, Filter: filter})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%q: filtered distributed ranking diverged\n got %+v\nwant %+v", qt, got.Hits, want.Hits)
		}
	}
}

// TestDistributedConceptParity covers the concept field end to end.
func TestDistributedConceptParity(t *testing.T) {
	single, sh := buildCorpus(t, 21, 90, 4)
	addrs := startTopology(t, sh, 2)
	cluster := connectCluster(t, addrs)
	seq := search.NewEngine(single, nil)
	dist := cluster.NewEngine(nil, 4)
	want, err := seq.Search(search.ConceptQuery("crowd", "stadium"), search.Options{K: 40})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dist.Search(search.ConceptQuery("crowd", "stadium"), search.Options{K: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concept-field distributed ranking diverged")
	}
}

// TestDistributedStatsView pins the aggregated statistics surface the
// expander and recommenders read through the engine.
func TestDistributedStatsView(t *testing.T) {
	single, sh := buildCorpus(t, 31, 80, 4)
	addrs := startTopology(t, sh, 2)
	cluster := connectCluster(t, addrs)
	seq := search.NewEngine(single, nil)
	dist := cluster.NewEngine(nil, 0)
	if dist.NumDocs() != seq.NumDocs() {
		t.Errorf("NumDocs %d vs %d", dist.NumDocs(), seq.NumDocs())
	}
	if dist.NumSegments() != sh.NumSegments() {
		t.Errorf("NumSegments %d, want %d", dist.NumSegments(), sh.NumSegments())
	}
	for _, term := range []string{"goal", "storm", "missing"} {
		if got, want := dist.DocFreq(index.FieldText, term), seq.DocFreq(index.FieldText, term); got != want {
			t.Errorf("DocFreq(%q) %d vs %d", term, got, want)
		}
	}
	if d, ok := dist.DocIDOf("s0007"); !ok || single.ExternalID(d) != "s0007" {
		t.Errorf("DocIDOf mismatch: %d %v", d, ok)
	}
	if _, ok := dist.DocIDOf("nope"); ok {
		t.Error("DocIDOf invented a document")
	}
}

// TestDistributedSystemParity runs the full adaptive stack — expander,
// evidence accumulation, profile rescoring and the evidence-keyed
// result cache — over a distributed engine and an in-process one, and
// requires identical rankings at every iteration. This is the
// end-to-end guarantee that ivrserve -segment-addrs serves the same
// product.
func TestDistributedSystemParity(t *testing.T) {
	arch, err := synth.Generate(synth.TinyConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.BuildShardedIndex(arch.Collection, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startTopology(t, sh, 2)
	cluster := connectCluster(t, addrs)
	if cluster.NumDocs() != arch.Collection.NumShots() {
		t.Fatalf("cluster indexes %d docs, collection has %d shots", cluster.NumDocs(), arch.Collection.NumShots())
	}

	cfg := core.Config{UseImplicit: true, UseProfile: true, CacheSize: 64}
	distSys, err := core.NewSystem(cluster.NewEngine(nil, 3), arch.Collection, cfg)
	if err != nil {
		t.Fatal(err)
	}
	localSys, err := core.NewSystemFromCollection(arch.Collection, cfg)
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{}
	for _, topic := range arch.Truth.SearchTopics {
		queries = append(queries, topic.Query)
		if len(queries) == 4 {
			break
		}
	}
	dSess := distSys.NewSession("u1", nil)
	lSess := localSys.NewSession("u1", nil)
	for qi, qt := range queries {
		dRes, err := dSess.Query(qt)
		if err != nil {
			t.Fatal(err)
		}
		lRes, err := lSess.Query(qt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dRes, lRes) {
			t.Fatalf("iteration %d (%q): adapted distributed ranking diverged\n got %v\nwant %v",
				qi, qt, dRes.IDs()[:min(5, len(dRes.Hits))], lRes.IDs()[:min(5, len(lRes.Hits))])
		}
		// Feed identical implicit evidence into both sessions so the
		// next iteration exercises the expander over each engine's
		// statistics surface.
		for i, h := range dRes.Hits {
			if i >= 2 {
				break
			}
			if err := dSess.ObserveAll(clickEvents(dSess.ID(), h.ID, i)); err != nil {
				t.Fatal(err)
			}
			if err := lSess.ObserveAll(clickEvents(lSess.ID(), h.ID, i)); err != nil {
				t.Fatal(err)
			}
		}
		if d, l := dSess.EvidenceFingerprint(), lSess.EvidenceFingerprint(); d != l {
			t.Fatalf("iteration %d: evidence fingerprints diverged (%x vs %x)", qi, d, l)
		}
	}
	// The distributed system's cache saw every unfiltered query.
	if snap := distSys.RetrievalSnapshot(); snap.Cache.Misses == 0 {
		t.Error("distributed system never touched its result cache")
	}
}

// TestDistributedKernelParityConcurrent is the 2-backend companion to
// internal/search's kernel parity suite: many goroutines query one
// merge tier over two segment servers at once, every answer compared
// against the sequential single-index scan, per scorer. Under -race
// this pins that the pooled kernel state (dense accumulators, top-k
// heaps, recycled hit slices) is never shared across the concurrent
// segment RPCs on either side of the process boundary.
func TestDistributedKernelParityConcurrent(t *testing.T) {
	single, sh := buildCorpus(t, 67, 140, 4)
	addrs := startTopology(t, sh, 2)
	cluster := connectCluster(t, addrs)
	an := text.NewAnalyzer()
	seq := search.NewEngine(single, an)
	dist := cluster.NewEngine(an, 4)
	scorers := []search.Scorer{search.BM25{}, search.TFIDF{}, search.DirichletLM{}}
	queries := queriesFor(67, 4)
	type caseKey struct{ qi, si int }
	wants := make(map[caseKey]search.Results)
	for qi, qt := range queries {
		for si, scorer := range scorers {
			want, err := seq.Search(seq.ParseText(qt), search.Options{K: 25, Scorer: scorer})
			if err != nil {
				t.Fatal(err)
			}
			wants[caseKey{qi, si}] = want
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				for qi, qt := range queries {
					for si, scorer := range scorers {
						got, err := dist.Search(dist.ParseText(qt), search.Options{K: 25, Scorer: scorer})
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(got, wants[caseKey{qi, si}]) {
							errs <- fmt.Errorf("q=%q scorer=%s: concurrent distributed ranking diverged", qt, scorer.Name())
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// clickEvents is the implicit evidence of one clicked-and-played
// result.
func clickEvents(sessionID, shotID string, rank int) []ilog.Event {
	return []ilog.Event{
		{SessionID: sessionID, Action: ilog.ActionClickKeyframe, ShotID: shotID, Rank: rank, TopicID: -1},
		{SessionID: sessionID, Action: ilog.ActionPlay, ShotID: shotID, Rank: rank, Seconds: 5, TopicID: -1},
	}
}

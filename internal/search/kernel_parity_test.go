package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/text"
)

// quirkyScorer is a deliberately unknown Scorer implementation: it
// forces the kernel onto the generic (interface-dispatch) path and has
// a non-zero DocScore, so the per-candidate correction is exercised
// there too.
type quirkyScorer struct{}

func (quirkyScorer) Name() string { return "quirky" }

func (quirkyScorer) TermScore(st TermStats, tf, docLen int) float64 {
	return st.Weight * float64(tf) / float64(docLen+1) * math.Log1p(float64(st.DF))
}

func (quirkyScorer) DocScore(sumWeights float64, docLen int) float64 {
	return -0.01 * sumWeights * math.Log1p(float64(docLen))
}

// parityScorers is the kernel parity matrix: every compiled fast path
// (default and explicitly parameterised) plus the generic fallback.
func parityScorers() []Scorer {
	return []Scorer{
		BM25{}, BM25{K1: 1.6, B: 0.3},
		TFIDF{},
		DirichletLM{}, DirichletLM{Mu: 500},
		quirkyScorer{},
	}
}

// TestKernelParityWithMapOracle is the tentpole guarantee of the dense
// kernel rewrite: PrepareQuery + ScoreSegment must return bit-identical
// results — hit IDs, scores, global doc IDs, candidate counts — to the
// retired map-accumulator implementation (scoreIndexSegmentMapOracle),
// across seeds × scorers × K (bounded and unbounded) × segment counts
// × filtered/unfiltered, per segment of a sharded build.
func TestKernelParityWithMapOracle(t *testing.T) {
	evenFilter := func(id string) bool { return id[len(id)-1]%2 == 0 }
	for _, seed := range []int64{1, 2008, 77} {
		for _, segments := range []int{1, 2, 3, 8} {
			single, sh := buildCorpus(t, seed, 120, segments)
			an := text.NewAnalyzer()
			eng := NewEngine(single, an)
			for qi, qt := range queriesFor(seed, 10) {
				q := eng.ParseText(qt)
				for _, scorer := range parityScorers() {
					stats := globalStatsFor(q, sh)
					p := PrepareQuery(q, stats, scorer)
					for _, k := range []int{3, 50, 1000, -1} {
						for _, filter := range []func(string) bool{nil, evenFilter} {
							// Per segment of the sharded build (global stats,
							// local postings — exactly the fan-out contract).
							for ord := 0; ord < sh.NumSegments(); ord++ {
								seg := sh.Segment(ord)
								globalID := func(d index.DocID) index.DocID {
									return d*index.DocID(sh.NumSegments()) + index.DocID(ord)
								}
								want := scoreIndexSegmentMapOracle(seg, globalID, q, stats, scorer, filter, k)
								got := p.ScoreSegment(seg, globalID, filter, k)
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("seed=%d segs=%d ord=%d q%d=%q scorer=%s k=%d filtered=%v: dense kernel diverged from map oracle\n got %+v\nwant %+v",
										seed, segments, ord, qi, qt, scorer.Name(), k, filter != nil, got.Hits, want.Hits)
								}
								// The monolithic single-index scan must agree too
								// (same stats, identity globalID) when the shard
								// count is 1.
								if segments == 1 && ord == 0 {
									ident := func(d index.DocID) index.DocID { return d }
									mono := ScoreIndexSegment(single, ident, q, stats, scorer, filter, k)
									wantMono := scoreIndexSegmentMapOracle(single, ident, q, stats, scorer, filter, k)
									if !reflect.DeepEqual(mono, wantMono) {
										t.Fatalf("seed=%d q%d scorer=%s k=%d: ScoreIndexSegment wrapper diverged from oracle",
											seed, qi, scorer.Name(), k)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelParityZeroCFDirichlet pins the subtlest oracle behaviour:
// a Dirichlet term whose wire statistics carry CF == 0 contributes
// exactly zero score but still registers every posting's document as a
// candidate (the oracle's map-add of 0.0). Coherent local statistics
// never produce this shape — only hand-built or malformed wire stats
// do — which is precisely why it needs a pin.
func TestKernelParityZeroCFDirichlet(t *testing.T) {
	single, _ := buildCorpus(t, 7, 60, 1)
	eng := NewEngine(single, nil)
	q := eng.ParseText("goal storm")
	stats := globalStatsFor(q, single)
	for i := range stats {
		stats[i].CF = 0 // malformed on purpose: DF > 0, CF == 0
	}
	ident := func(d index.DocID) index.DocID { return d }
	for _, scorer := range []Scorer{DirichletLM{}, DirichletLM{Mu: 123}} {
		want := scoreIndexSegmentMapOracle(single, ident, q, stats, scorer, nil, 50)
		got := ScoreIndexSegment(single, ident, q, stats, scorer, nil, 50)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scorer=%s: zero-CF Dirichlet diverged from oracle\n got %+v\nwant %+v",
				scorer.Name(), got, want)
		}
		if got.Candidates == 0 {
			t.Fatal("zero-CF terms must still register candidates")
		}
		for _, h := range got.Hits {
			if h.Score == 0 {
				continue
			}
			// Score is the pure DocScore remainder; just ensure it is
			// finite (the zero-branch must not produce NaN/Inf).
			if math.IsNaN(h.Score) || math.IsInf(h.Score, 0) {
				t.Fatalf("zero-CF Dirichlet produced non-finite score %v", h.Score)
			}
		}
	}
}

// TestKernelEngineParityWithOracleMerge rebuilds the engine-level
// answer from oracle-scored segments (oracle per segment + TopK merge,
// the retired execution plan) and requires Engine.Search over the same
// sharded index to match bit-for-bit — the end-to-end form of the
// kernel parity claim.
func TestKernelEngineParityWithOracleMerge(t *testing.T) {
	for _, seed := range []int64{3, 2008} {
		_, sh := buildCorpus(t, seed, 150, 4)
		an := text.NewAnalyzer()
		eng := NewShardedEngine(sh, an, 4)
		for _, qt := range queriesFor(seed, 8) {
			q := eng.ParseText(qt)
			for _, scorer := range parityScorers() {
				const k = 30
				stats := globalStatsFor(q, sh)
				top := NewTopK(k)
				candidates := 0
				for ord := 0; ord < sh.NumSegments(); ord++ {
					ordinal := ord
					res := scoreIndexSegmentMapOracle(sh.Segment(ord), func(d index.DocID) index.DocID {
						return d*index.DocID(sh.NumSegments()) + index.DocID(ordinal)
					}, q, stats, scorer, nil, k)
					candidates += res.Candidates
					for _, h := range res.Hits {
						top.Offer(h)
					}
				}
				want := Results{Hits: top.Ranked(), Candidates: candidates}
				got, err := eng.Search(q, Options{K: k, Scorer: scorer})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d q=%q scorer=%s: engine diverged from oracle merge\n got %+v\nwant %+v",
						seed, qt, scorer.Name(), got.Hits, want.Hits)
				}
			}
		}
	}
}

// TestKernelParityConcurrent hammers one engine from many goroutines
// while comparing every answer against the oracle-merged ranking:
// under -race this pins that the pooled accumulators, selection scratch
// and hit slices are never shared across concurrent scans.
func TestKernelParityConcurrent(t *testing.T) {
	_, sh := buildCorpus(t, 55, 140, 4)
	eng := NewShardedEngine(sh, text.NewAnalyzer(), 4)
	queries := queriesFor(55, 6)
	wants := make([]Results, len(queries))
	for i, qt := range queries {
		q := eng.ParseText(qt)
		stats := globalStatsFor(q, sh)
		top := NewTopK(25)
		candidates := 0
		for ord := 0; ord < sh.NumSegments(); ord++ {
			ordinal := ord
			res := scoreIndexSegmentMapOracle(sh.Segment(ord), func(d index.DocID) index.DocID {
				return d*index.DocID(sh.NumSegments()) + index.DocID(ordinal)
			}, q, stats, BM25{}, nil, 25)
			candidates += res.Candidates
			for _, h := range res.Hits {
				top.Offer(h)
			}
		}
		wants[i] = Results{Hits: top.Ranked(), Candidates: candidates}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 15; iter++ {
				for i, qt := range queries {
					got, err := eng.Search(eng.ParseText(qt), Options{K: 25})
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, wants[i]) {
						errs <- fmt.Errorf("q=%q: concurrent kernel result diverged from oracle", qt)
						return
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

// buildSkewedIndex builds a corpus with a sharp impact skew across
// postings blocks: 4096 documents (32 postings blocks for a term in
// every doc), where the first 200 documents carry the term "common"
// with tf=8 and a short document (high impact) while the rest carry it
// with tf=1 inside a longer document (low impact). It is the shape
// where block-max early termination skipped the most blocks, kept now
// that the kernel scans every block. A second term "extra" on a sparse
// subset exercises multi-term accumulation.
func buildSkewedIndex(t *testing.T) *index.Index {
	t.Helper()
	b := index.NewBuilder()
	for d := 0; d < 4096; d++ {
		doc := index.NewDocument(fmt.Sprintf("shot%04d", d))
		if d < 200 {
			doc.SetTermCount(index.FieldText, "common", 8)
		} else {
			doc.SetTermCount(index.FieldText, "common", 1)
			doc.SetTermCount(index.FieldText, "filler", 11)
		}
		if d%17 == 0 {
			doc.SetTermCount(index.FieldText, "extra", 1+d%3)
		}
		if err := b.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestBlockMaxParityAndSkips pins kernel parity on the skewed corpus:
// every hit, score bit and candidate count must equal the map oracle's
// for several scorers and K. The name dates from block-max early
// termination, whose skips this corpus was built to force; the
// mechanism is gone and the parity half stays.
func TestBlockMaxParityAndSkips(t *testing.T) {
	ix := buildSkewedIndex(t)
	ident := func(d index.DocID) index.DocID { return d }
	queries := []string{"common", "common extra", "extra common filler"}
	for _, scorer := range []Scorer{BM25{}, BM25{K1: 1.6, B: 0.3}, TFIDF{}} {
		t.Run(scorer.Name(), func(t *testing.T) {
			for _, qt := range queries {
				q := Query{Field: index.FieldText}
				for _, term := range strings.Fields(qt) {
					q.Terms = append(q.Terms, WeightedTerm{Term: term, Weight: 1})
				}
				stats := make([]TermStats, len(q.Terms))
				for i, qterm := range q.Terms {
					stats[i] = TermStats{
						N:         ix.NumDocs(),
						AvgDocLen: ix.AvgDocLen(q.Field),
						TotalLen:  ix.TotalFieldLen(q.Field),
						DF:        ix.DocFreq(q.Field, qterm.Term),
						CF:        ix.CollectionFreq(q.Field, qterm.Term),
						Weight:    qterm.Weight,
					}
				}
				p := PrepareQuery(q, stats, scorer)
				for _, k := range []int{4, 16, 64, 5000, -1} {
					want := scoreIndexSegmentMapOracle(ix, ident, q, stats, scorer, nil, k)
					got := p.ScoreSegment(ix, ident, nil, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("q=%q k=%d: kernel diverged from map oracle\n got %d hits %d candidates\nwant %d hits %d candidates",
							qt, k, len(got.Hits), got.Candidates, len(want.Hits), want.Candidates)
					}
					RecycleHits(got.Hits)
				}
			}
		})
	}
}

// TestBlockMaxDisabledPaths pins kernel parity on the shapes that
// block-max early termination had to leave unpruned: filters,
// unbounded K, Dirichlet (negative per-document correction), generic
// scorers, and hostile statistics (negative weighted IDF, so negative
// scores). The name dates from that mechanism; the parity half stays.
func TestBlockMaxDisabledPaths(t *testing.T) {
	ix := buildSkewedIndex(t)
	ident := func(d index.DocID) index.DocID { return d }
	q := Query{Field: index.FieldText, Terms: []WeightedTerm{{Term: "common", Weight: 1}}}
	goodStats := []TermStats{{
		N: ix.NumDocs(), AvgDocLen: ix.AvgDocLen(q.Field), TotalLen: ix.TotalFieldLen(q.Field),
		DF: ix.DocFreq(q.Field, "common"), CF: ix.CollectionFreq(q.Field, "common"), Weight: 1,
	}}
	cases := []struct {
		name   string
		stats  []TermStats
		scorer Scorer
		filter func(string) bool
		k      int
	}{
		{"filtered", goodStats, BM25{}, func(id string) bool { return id[len(id)-1]%2 == 0 }, 16},
		{"unbounded", goodStats, BM25{}, nil, -1},
		{"dirichlet", goodStats, DirichletLM{}, nil, 16},
		{"generic", goodStats, quirkyScorer{}, nil, 16},
		// DF > N drives BM25's IDF negative, and every score with it.
		{"hostile stats", []TermStats{{
			N: 1, AvgDocLen: goodStats[0].AvgDocLen, TotalLen: goodStats[0].TotalLen,
			DF: ix.DocFreq(q.Field, "common"), CF: goodStats[0].CF, Weight: 1,
		}}, BM25{}, nil, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := PrepareQuery(q, tc.stats, tc.scorer)
			want := scoreIndexSegmentMapOracle(ix, ident, q, tc.stats, tc.scorer, tc.filter, tc.k)
			got := p.ScoreSegment(ix, ident, tc.filter, tc.k)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("kernel diverged from map oracle")
			}
			RecycleHits(got.Hits)
		})
	}
}

// buildTiedCorpus builds docs documents from three templates, so each
// template's documents score identically under every scorer: whole
// runs tie at any cut. External IDs are a seeded permutation of the
// insertion order, so DocID order and ID order disagree inside a tied
// run (the canonical order breaks ties by ID, never by DocID). The
// same stream is built into one index and into a segments-way
// round-robin sharded index.
func buildTiedCorpus(t testing.TB, docs, segments int) (*index.Index, *index.Sharded) {
	t.Helper()
	templates := [][2]int{{3, 2}, {1, 1}, {0, 4}} // tf of "goal", "storm"
	perm := rand.New(rand.NewSource(int64(docs))).Perm(docs)
	doc := func(i int) *index.Document {
		d := index.NewDocument(fmt.Sprintf("t%04d", perm[i]))
		tf := templates[i%len(templates)]
		if tf[0] > 0 {
			d.SetTermCount(index.FieldText, "goal", tf[0])
		}
		d.SetTermCount(index.FieldText, "storm", tf[1])
		d.SetTermCount(index.FieldText, "filler", 5-tf[0])
		return d
	}
	single := index.NewBuilder()
	builders := make([]*index.Builder, segments)
	for i := range builders {
		builders[i] = index.NewBuilder()
	}
	for i := 0; i < docs; i++ {
		if err := single.AddDocument(doc(i)); err != nil {
			t.Fatal(err)
		}
		if err := builders[i%segments].AddDocument(doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := make([]*index.Index, segments)
	for i, b := range builders {
		segs[i] = b.Build()
	}
	sh, err := index.NewSharded(segs)
	if err != nil {
		t.Fatal(err)
	}
	return single.Build(), sh
}

// TestKernelTiesAtTheCut pins the rank order where it is hardest to
// keep: the K-th score is shared by a run of documents that straddles
// the cut, so which of them survive — and in what order — is decided
// by ID alone. Each segment's kernel answer and the engine's merged
// answer must equal the map oracle's, for every scorer path, bounded
// and unbounded K, and 1, 2 and 3 segments.
func TestKernelTiesAtTheCut(t *testing.T) {
	const docs = 300 // 100 documents per template
	for _, segments := range []int{1, 2, 3} {
		single, sh := buildTiedCorpus(t, docs, segments)
		eng := NewShardedEngine(sh, text.NewAnalyzer(), segments)
		q := eng.ParseText("goal storm")
		stats := globalStatsFor(q, sh)
		for _, scorer := range parityScorers() {
			p := PrepareQuery(q, stats, scorer)
			for _, k := range []int{1, 7, 200, -1} {
				for ord := 0; ord < sh.NumSegments(); ord++ {
					globalID := func(d index.DocID) index.DocID {
						return d*index.DocID(sh.NumSegments()) + index.DocID(ord)
					}
					want := scoreIndexSegmentMapOracle(sh.Segment(ord), globalID, q, stats, scorer, nil, k)
					got := p.ScoreSegment(sh.Segment(ord), globalID, nil, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("segs=%d ord=%d scorer=%s k=%d: kernel diverged from map oracle at a tied cut\n got %+v\nwant %+v",
							segments, ord, scorer.Name(), k, got.Hits, want.Hits)
					}
					RecycleHits(got.Hits)
				}
				// The engine's merged ranking equals the oracle over the
				// unsegmented index (global DocIDs follow insertion order
				// in both builds); Options.K <= 0 selects DefaultK.
				ek := k
				if ek <= 0 {
					ek = DefaultK
				}
				ident := func(d index.DocID) index.DocID { return d }
				oracle := scoreIndexSegmentMapOracle(single, ident, q, stats, scorer, nil, ek)
				want := Results{Hits: oracle.Hits, Candidates: oracle.Candidates}
				got, err := eng.Search(q, Options{K: k, Scorer: scorer})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("segs=%d scorer=%s k=%d: engine diverged from map oracle at a tied cut\n got %+v\nwant %+v",
						segments, scorer.Name(), k, got.Hits, want.Hits)
				}
			}
		}
	}
}

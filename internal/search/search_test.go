package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/text"
)

// buildEngine indexes the given ext->text docs through the standard
// analyzer and returns an engine over them.
func buildEngine(t testing.TB, docs map[string]string) *Engine {
	t.Helper()
	an := text.NewAnalyzer()
	b := index.NewBuilder()
	exts := make([]string, 0, len(docs))
	for ext := range docs {
		exts = append(exts, ext)
	}
	sort.Strings(exts)
	for _, ext := range exts {
		doc := index.NewDocument(ext).AddTerms(index.FieldText, an.Terms(docs[ext])...)
		if err := b.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(b.Build(), an)
}

func newsDocs() map[string]string {
	return map[string]string{
		"d0": "the chancellor announced the budget vote in parliament",
		"d1": "the cup final goal decided the football match",
		"d2": "football fans celebrated the second goal goal goal",
		"d3": "parliament debated the budget budget budget vote",
		"d4": "weather brings heavy snow across the north",
	}
}

func TestSearchFindsRelevantDocs(t *testing.T) {
	e := buildEngine(t, newsDocs())
	r, err := e.Search(e.ParseText("football goal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hits) < 2 {
		t.Fatalf("got %d hits, want >= 2", len(r.Hits))
	}
	got := map[string]bool{}
	for _, h := range r.Hits {
		got[h.ID] = true
	}
	if !got["d1"] || !got["d2"] {
		t.Errorf("missing football docs in %v", r.IDs())
	}
	if got["d4"] {
		t.Error("weather doc matched football query")
	}
}

func TestSearchStemmingBridgesForms(t *testing.T) {
	e := buildEngine(t, map[string]string{"d0": "the goals were celebrated"})
	r, err := e.Search(e.ParseText("goal celebration"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hits) != 1 || r.Hits[0].ID != "d0" {
		t.Errorf("stemmed match failed: %v", r.IDs())
	}
}

func TestSearchScoresDescendingAndDeterministic(t *testing.T) {
	e := buildEngine(t, newsDocs())
	for _, scorer := range []Scorer{BM25{}, TFIDF{}, DirichletLM{}} {
		r, err := e.Search(e.ParseText("budget vote"), Options{Scorer: scorer})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(r.Hits); i++ {
			if r.Hits[i-1].Score < r.Hits[i].Score {
				t.Errorf("%s: scores not descending", scorer.Name())
			}
			if r.Hits[i-1].Score == r.Hits[i].Score && r.Hits[i-1].ID >= r.Hits[i].ID {
				t.Errorf("%s: tie not broken by ID", scorer.Name())
			}
		}
		// d3 repeats budget 3x and has vote: must beat d0.
		if len(r.Hits) >= 2 && r.Hits[0].ID != "d3" {
			t.Errorf("%s: top hit = %s, want d3", scorer.Name(), r.Hits[0].ID)
		}
		// Re-running gives the identical list.
		r2, _ := e.Search(e.ParseText("budget vote"), Options{Scorer: scorer})
		if !reflect.DeepEqual(r.Hits, r2.Hits) {
			t.Errorf("%s: non-deterministic results", scorer.Name())
		}
	}
}

func TestSearchTopKBound(t *testing.T) {
	docs := map[string]string{}
	for i := 0; i < 50; i++ {
		docs[fmt.Sprintf("d%02d", i)] = "common term appears everywhere"
	}
	e := buildEngine(t, docs)
	r, err := e.Search(e.ParseText("common term"), Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hits) != 7 {
		t.Errorf("len(hits) = %d, want 7", len(r.Hits))
	}
	if r.Candidates != 50 {
		t.Errorf("candidates = %d, want 50", r.Candidates)
	}
}

func TestSearchFilter(t *testing.T) {
	e := buildEngine(t, newsDocs())
	r, err := e.Search(e.ParseText("football goal"), Options{
		Filter: func(id string) bool { return id != "d2" },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range r.Hits {
		if h.ID == "d2" {
			t.Error("filtered doc leaked into results")
		}
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	e := buildEngine(t, newsDocs())
	r, err := e.Search(Query{}, Options{})
	if err != nil || len(r.Hits) != 0 {
		t.Errorf("empty query: %v, %v", r.Hits, err)
	}
	r, err = e.Search(e.ParseText("the of and"), Options{}) // all stopwords
	if err != nil || len(r.Hits) != 0 {
		t.Errorf("stopword query: %v, %v", r.Hits, err)
	}
}

func TestSearchRejectsNegativeWeights(t *testing.T) {
	e := buildEngine(t, newsDocs())
	q := Query{Field: index.FieldText, Terms: []WeightedTerm{{Term: "goal", Weight: -1}}}
	if _, err := e.Search(q, Options{}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestQueryWeightsInfluenceRanking(t *testing.T) {
	e := buildEngine(t, newsDocs())
	// Heavily weight "budget": d3 should dominate even vs football docs.
	q := Query{Field: index.FieldText, Terms: []WeightedTerm{
		{Term: text.Stem("budget"), Weight: 5},
		{Term: text.Stem("goal"), Weight: 0.1},
	}}
	r, err := e.Search(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Hits[0].ID != "d3" {
		t.Errorf("top = %s, want d3", r.Hits[0].ID)
	}
}

func TestConceptQuery(t *testing.T) {
	an := text.NewAnalyzer()
	b := index.NewBuilder()
	d0 := index.NewDocument("s0").AddTerms(index.FieldText, "irrelevant")
	d0.SetTermCount(index.FieldConcept, "anchor_person", 9)
	d1 := index.NewDocument("s1").AddTerms(index.FieldText, "irrelevant")
	d1.SetTermCount(index.FieldConcept, "sports_venue", 8)
	for _, d := range []*index.Document{d0, d1} {
		if err := b.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(b.Build(), an)
	r, err := e.Search(ConceptQuery("sports_venue"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hits) != 1 || r.Hits[0].ID != "s1" {
		t.Errorf("concept search = %v", r.IDs())
	}
}

func TestBM25MonotonicInTF(t *testing.T) {
	st := TermStats{N: 1000, AvgDocLen: 50, DF: 10, CF: 100, Weight: 1}
	prev := 0.0
	for tf := 1; tf <= 20; tf++ {
		s := BM25{}.TermScore(st, tf, 50)
		if s <= prev {
			t.Fatalf("BM25 not increasing at tf=%d", tf)
		}
		prev = s
	}
}

func TestBM25IDFOrdering(t *testing.T) {
	rare := TermStats{N: 1000, AvgDocLen: 50, DF: 2, Weight: 1}
	common := TermStats{N: 1000, AvgDocLen: 50, DF: 900, Weight: 1}
	if (BM25{}).TermScore(rare, 1, 50) <= (BM25{}).TermScore(common, 1, 50) {
		t.Error("rare term should outscore common term")
	}
}

func TestBM25LengthNormalisation(t *testing.T) {
	st := TermStats{N: 1000, AvgDocLen: 50, DF: 10, Weight: 1}
	short := BM25{}.TermScore(st, 2, 20)
	long := BM25{}.TermScore(st, 2, 200)
	if short <= long {
		t.Error("longer doc should be penalised at equal tf")
	}
}

func TestDirichletDocScoreNegativeForLongDocs(t *testing.T) {
	lm := DirichletLM{Mu: 100}
	if lm.DocScore(2, 50) >= lm.DocScore(2, 10) {
		t.Error("longer docs should receive more negative correction")
	}
}

// Property: BM25 scores are non-negative and finite for any sane stats.
func TestPropertyBM25Finite(t *testing.T) {
	f := func(df8, tf8, dl8 uint8) bool {
		df := 1 + int(df8)%999
		tf := 1 + int(tf8)
		dl := 1 + int(dl8)
		st := TermStats{N: 1000, AvgDocLen: 50, DF: df, Weight: 1}
		s := BM25{}.TermScore(st, tf, dl)
		return s >= 0 && !math.IsInf(s, 0) && !math.IsNaN(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFuseCombSUM(t *testing.T) {
	a := []Hit{{ID: "x", Score: 10}, {ID: "y", Score: 5}, {ID: "z", Score: 0}}
	b := []Hit{{ID: "y", Score: 4}, {ID: "x", Score: 2}, {ID: "w", Score: 0}}
	fused := Fuse(CombSUM{}, [][]Hit{a, b}, 10)
	if len(fused) != 4 {
		t.Fatalf("fused %d ids, want 4", len(fused))
	}
	// x: 1.0 + 0.5 = 1.5; y: 0.5 + 1.0 = 1.5; tie broken by ID: x first.
	if fused[0].ID != "x" || fused[1].ID != "y" {
		t.Errorf("order = %v", []string{fused[0].ID, fused[1].ID})
	}
}

func TestFuseCombMNZRewardsAgreement(t *testing.T) {
	a := []Hit{{ID: "both", Score: 1}, {ID: "onlyA", Score: 0.9}}
	b := []Hit{{ID: "both", Score: 1}, {ID: "onlyB", Score: 0.9}}
	fused := Fuse(CombMNZ{}, [][]Hit{a, b}, 10)
	if fused[0].ID != "both" {
		t.Errorf("top = %s, want both", fused[0].ID)
	}
}

func TestFuseBorda(t *testing.T) {
	a := []Hit{{ID: "p", Score: 3}, {ID: "q", Score: 2}, {ID: "r", Score: 1}}
	b := []Hit{{ID: "q", Score: 9}, {ID: "p", Score: 8}, {ID: "r", Score: 7}}
	fused := Fuse(Borda{}, [][]Hit{a, b}, 10)
	// p: 3+2=5, q: 2+3=5, r: 1+1=2 -> p,q tie (ID order), r last.
	if fused[2].ID != "r" {
		t.Errorf("Borda last = %s, want r", fused[2].ID)
	}
}

func TestFuseRRF(t *testing.T) {
	a := []Hit{{ID: "p", Score: 3}, {ID: "q", Score: 2}}
	b := []Hit{{ID: "q", Score: 9}, {ID: "p", Score: 8}}
	fused := Fuse(RRF{K: 1}, [][]Hit{a, b}, 10)
	// Symmetric: p and q both get 1/2+1/3; tie broken by ID.
	if fused[0].ID != "p" {
		t.Errorf("RRF top = %s", fused[0].ID)
	}
	if math.Abs(fused[0].Score-fused[1].Score) > 1e-12 {
		t.Error("symmetric ranks should tie")
	}
}

// Property: fusing a single list preserves its order.
func TestPropertyFusePreservesSingleList(t *testing.T) {
	fusers := []Fuser{CombSUM{}, CombMNZ{}, Borda{}, RRF{}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		list := make([]Hit, n)
		used := map[float64]bool{}
		for i := range list {
			s := math.Round(r.Float64()*1000) / 10
			for used[s] {
				s += 0.05
			}
			used[s] = true
			list[i] = Hit{ID: fmt.Sprintf("d%03d", i), Score: s}
		}
		sort.Slice(list, func(i, j int) bool { return hitLess(list[i], list[j]) })
		for _, fu := range fusers {
			fused := Fuse(fu, [][]Hit{list}, n)
			if len(fused) != n {
				return false
			}
			for i := range fused {
				if fused[i].ID != list[i].ID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFuseEmptyInputs(t *testing.T) {
	if got := Fuse(CombSUM{}, nil, 5); len(got) != 0 {
		t.Error("fusing nothing should be empty")
	}
	if got := Fuse(CombSUM{}, [][]Hit{{}, {}}, 5); len(got) != 0 {
		t.Error("fusing empty lists should be empty")
	}
}

func TestWeightedHits(t *testing.T) {
	in := []Hit{{ID: "a", Score: 2}}
	out := WeightedHits(in, 0.5)
	if out[0].Score != 1 || in[0].Score != 2 {
		t.Error("WeightedHits must scale a copy")
	}
}

func TestRescore(t *testing.T) {
	hits := []Hit{{ID: "a", Score: 1}, {ID: "b", Score: 0.75}, {ID: "c", Score: 0.5}}
	boostB := func(h Hit) float64 {
		if h.ID == "b" {
			return 0.5
		}
		return 0
	}
	Rescore(hits, 1.0, boostB)
	if got := []string{hits[0].ID, hits[1].ID, hits[2].ID}; !reflect.DeepEqual(got, []string{"b", "a", "c"}) {
		t.Errorf("rescored order = %v, want [b a c]", got)
	}
	if hits[0].Score != 1.25 {
		t.Errorf("rescored top score = %v, want 1.25", hits[0].Score)
	}
	// A boost that keeps rank order rescores in place without moving
	// any hit; ties still rank by ID.
	hits = []Hit{{ID: "x", Score: 2}, {ID: "a", Score: 1}, {ID: "b", Score: 1}}
	Rescore(hits, 1.0, func(h Hit) float64 { return 0.25 })
	if got := []string{hits[0].ID, hits[1].ID, hits[2].ID}; !reflect.DeepEqual(got, []string{"x", "a", "b"}) || hits[2].Score != 1.25 {
		t.Errorf("order-keeping rescore = %+v", hits)
	}
}

func TestSearchMultiField(t *testing.T) {
	an := text.NewAnalyzer()
	b := index.NewBuilder()
	d0 := index.NewDocument("s0").AddTerms(index.FieldText, an.Terms("football goal scored")...)
	d0.SetTermCount(index.FieldConcept, "sports_venue", 5)
	d1 := index.NewDocument("s1").AddTerms(index.FieldText, an.Terms("football press conference")...)
	d2 := index.NewDocument("s2").AddTerms(index.FieldText, an.Terms("budget debate")...)
	d2.SetTermCount(index.FieldConcept, "sports_venue", 5)
	for _, d := range []*index.Document{d0, d1, d2} {
		if err := b.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(b.Build(), an)
	r, err := e.SearchMultiField([]Query{
		e.ParseText("football"),
		ConceptQuery("sports_venue"),
	}, Options{K: 10}, CombMNZ{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hits) == 0 || r.Hits[0].ID != "s0" {
		t.Errorf("multi-field top = %v, want s0 first", r.IDs())
	}
}

func TestTopKOfferOrderIndependent(t *testing.T) {
	hits := make([]Hit, 100)
	for i := range hits {
		hits[i] = Hit{ID: fmt.Sprintf("d%03d", i), Score: float64(i % 10)}
	}
	a := NewTopK(10)
	for _, h := range hits {
		a.Offer(h)
	}
	b := NewTopK(10)
	for i := len(hits) - 1; i >= 0; i-- {
		b.Offer(hits[i])
	}
	if !reflect.DeepEqual(a.Ranked(), b.Ranked()) {
		t.Error("topK result depends on offer order")
	}
}

func BenchmarkSearchBM25(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	docs := map[string]string{}
	words := []string{"budget", "vote", "goal", "football", "minister", "storm", "market", "shares", "hospital", "school"}
	for i := 0; i < 2000; i++ {
		n := 20 + r.Intn(40)
		var s []byte
		for j := 0; j < n; j++ {
			s = append(s, words[r.Intn(len(words))]...)
			s = append(s, ' ')
		}
		docs[fmt.Sprintf("d%04d", i)] = string(s)
	}
	e := buildEngine(b, docs)
	q := e.ParseText("budget vote football")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(q, Options{K: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

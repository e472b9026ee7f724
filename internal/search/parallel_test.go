package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/text"
)

// buildCorpus builds the same random document stream into one single
// index and one n-segment sharded index.
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

// queriesFor draws random multi-term queries from the corpus vocabulary.
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

// TestParallelScoreParity is the engine-level parity guarantee: the
// sharded parallel executor must return bit-identical rankings
// (IDs, scores, and global doc ids) to the sequential single-index
// scan, across seeds, scorers, segment counts and K.
func TestParallelScoreParity(t *testing.T) {
	scorers := []Scorer{BM25{}, TFIDF{}, DirichletLM{}}
	for _, seed := range []int64{1, 2008, 77} {
		for _, segments := range []int{2, 3, 8} {
			single, sh := buildCorpus(t, seed, 120, segments)
			an := text.NewAnalyzer()
			seq := NewEngine(single, an)
			par := NewShardedEngine(sh, an, 4)
			for qi, qt := range queriesFor(seed, 12) {
				for _, scorer := range scorers {
					for _, k := range []int{5, 50, 1000} {
						opts := Options{K: k, Scorer: scorer}
						want, err := seq.Search(seq.ParseText(qt), opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := par.Search(par.ParseText(qt), opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed=%d segs=%d q%d=%q scorer=%s k=%d: parallel ranking diverged\n got %+v\nwant %+v",
								seed, segments, qi, qt, scorer.Name(), k, got.Hits, want.Hits)
						}
					}
				}
			}
		}
	}
}

// TestParallelMatchesSequentialExecutionOfSameSegments pins down that
// the worker-pool path and the in-order path over the *same* sharded
// index agree (executor parity, independent of index construction).
func TestParallelMatchesSequentialExecutionOfSameSegments(t *testing.T) {
	_, sh := buildCorpus(t, 5, 90, 4)
	an := text.NewAnalyzer()
	par := NewShardedEngine(sh, an, 8)
	seq := NewShardedEngine(sh, an, 1)
	for _, qt := range queriesFor(5, 10) {
		want, err := seq.Search(seq.ParseText(qt), Options{K: 30})
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Search(par.ParseText(qt), Options{K: 30})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%q: worker-pool result differs from in-order result", qt)
		}
	}
}

func TestParallelFilterAndConceptField(t *testing.T) {
	single, sh := buildCorpus(t, 9, 100, 3)
	an := text.NewAnalyzer()
	seq := NewEngine(single, an)
	par := NewShardedEngine(sh, an, 3)
	filter := func(id string) bool { return id[len(id)-1]%2 == 0 }
	want, err := seq.Search(seq.ParseText("goal storm"), Options{K: 40, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Search(par.ParseText("goal storm"), Options{K: 40, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("filtered parallel ranking diverged")
	}
	wantC, err := seq.Search(ConceptQuery("crowd", "stadium"), Options{K: 40})
	if err != nil {
		t.Fatal(err)
	}
	gotC, err := par.Search(ConceptQuery("crowd", "stadium"), Options{K: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotC, wantC) {
		t.Fatal("concept-field parallel ranking diverged")
	}
}

// TestParallelSearchConcurrent exercises the fan-out under the race
// detector: many goroutines searching one sharded engine at once.
func TestParallelSearchConcurrent(t *testing.T) {
	_, sh := buildCorpus(t, 13, 150, 4)
	eng := NewShardedEngine(sh, text.NewAnalyzer(), 4)
	want, err := eng.Search(eng.ParseText("goal vote"), Options{K: 25})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := eng.Search(eng.ParseText("goal vote"), Options{K: 25})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("concurrent search diverged")
					return
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

func TestSegmentObserver(t *testing.T) {
	_, sh := buildCorpus(t, 21, 60, 3)
	eng := NewShardedEngine(sh, text.NewAnalyzer(), 2)
	var mu sync.Mutex
	seen := make(map[int]int)
	total := 0
	eng.SetSegmentObserver(func(segment, candidates int, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for segment %d", segment)
		}
		mu.Lock()
		seen[segment]++
		total += candidates
		mu.Unlock()
	})
	res, err := eng.Search(eng.ParseText("goal"), Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != eng.NumSegments() {
		t.Fatalf("observer saw %d segments, want %d", len(seen), eng.NumSegments())
	}
	if total != res.Candidates {
		t.Errorf("observer candidates %d != result candidates %d", total, res.Candidates)
	}
}

// failingSegment simulates a remote segment backend that errors.
type failingSegment struct {
	inner SegmentSearcher
	err   error
}

func (f failingSegment) NumDocs() int { return f.inner.NumDocs() }

func (f failingSegment) SearchSegment(ctx context.Context, p *PreparedQuery,
	filter func(string) bool, k int) (SegmentResult, error) {
	if f.err != nil {
		return SegmentResult{}, f.err
	}
	return f.inner.SearchSegment(ctx, p, filter, k)
}

// wrapSegments adapts a sharded index into the SegmentSearcher form a
// custom (e.g. remote) composition would use.
func wrapSegments(sh *index.Sharded) []SegmentSearcher {
	segs := make([]SegmentSearcher, sh.NumSegments())
	for i := range segs {
		segs[i] = localSegment{seg: sh.Segment(i), ordinal: i, stride: sh.NumSegments()}
	}
	return segs
}

// TestSegmentsEngineParity pins that an engine assembled through the
// custom-segment constructor (the distributed merge tier's path) is
// bit-identical to the built-in sharded engine.
func TestSegmentsEngineParity(t *testing.T) {
	_, sh := buildCorpus(t, 41, 90, 3)
	an := text.NewAnalyzer()
	builtin := NewShardedEngine(sh, an, 3)
	custom := NewSegmentsEngine(sh, wrapSegments(sh), an, 3)
	for _, qt := range queriesFor(41, 8) {
		want, err := builtin.Search(builtin.ParseText(qt), Options{K: 30})
		if err != nil {
			t.Fatal(err)
		}
		got, err := custom.Search(custom.ParseText(qt), Options{K: 30})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%q: custom-segment engine diverged", qt)
		}
	}
}

// TestSegmentErrorPropagation: a failing segment yields a typed
// *SegmentError naming the lowest failed ordinal, never a partial
// ranking — on both the sequential and the worker-pool path.
func TestSegmentErrorPropagation(t *testing.T) {
	_, sh := buildCorpus(t, 43, 80, 4)
	boom := fmt.Errorf("backend unplugged")
	for _, workers := range []int{1, 4} {
		segs := wrapSegments(sh)
		segs[2] = failingSegment{inner: segs[2], err: boom}
		eng := NewSegmentsEngine(sh, segs, nil, workers)
		_, err := eng.Search(eng.ParseText("goal vote"), Options{K: 10})
		if err == nil {
			t.Fatalf("workers=%d: failing segment produced a ranking", workers)
		}
		var se *SegmentError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: error %v (%T) is not *SegmentError", workers, err, err)
		}
		if se.Segment != 2 {
			t.Errorf("workers=%d: blamed segment %d, want 2", workers, se.Segment)
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: cause not preserved through Unwrap", workers)
		}
	}
}

// TestScoreIndexSegmentUnboundedK: k <= 0 returns every candidate in
// rank order (the path a filtered remote query takes).
func TestScoreIndexSegmentUnboundedK(t *testing.T) {
	single, _ := buildCorpus(t, 47, 70, 2)
	eng := NewEngine(single, nil)
	q := eng.ParseText("goal storm vote")
	stats := make([]TermStats, len(q.Terms))
	for i, term := range q.Terms {
		stats[i] = TermStats{
			N: single.NumDocs(), AvgDocLen: single.AvgDocLen(q.Field),
			TotalLen: single.TotalFieldLen(q.Field),
			DF:       single.DocFreq(q.Field, term.Term),
			CF:       single.CollectionFreq(q.Field, term.Term),
			Weight:   term.Weight,
		}
	}
	ident := func(d index.DocID) index.DocID { return d }
	all := ScoreIndexSegment(single, ident, q, stats, BM25{}, nil, -1)
	if len(all.Hits) != all.Candidates {
		t.Fatalf("unbounded k kept %d of %d candidates", len(all.Hits), all.Candidates)
	}
	cut := ScoreIndexSegment(single, ident, q, stats, BM25{}, nil, 10)
	if !reflect.DeepEqual(all.Hits[:len(cut.Hits)], cut.Hits) {
		t.Fatal("bounded result is not a prefix of the unbounded ranking")
	}
}

func TestShardedEngineStats(t *testing.T) {
	single, sh := buildCorpus(t, 31, 40, 4)
	seq := NewEngine(single, nil)
	par := NewShardedEngine(sh, nil, 0)
	if par.NumSegments() != 4 || seq.NumSegments() != 1 {
		t.Errorf("segments = %d sharded / %d single, want 4 / 1", par.NumSegments(), seq.NumSegments())
	}
	if par.NumDocs() != seq.NumDocs() {
		t.Errorf("NumDocs %d vs %d", par.NumDocs(), seq.NumDocs())
	}
	if par.DocFreq(index.FieldText, "goal") != seq.DocFreq(index.FieldText, "goal") {
		t.Error("aggregated DocFreq mismatch")
	}
	if par.Workers() <= 0 {
		t.Error("workers not defaulted")
	}
	if d, ok := par.DocIDOf("s0007"); !ok || single.ExternalID(d) != "s0007" {
		t.Errorf("DocIDOf mismatch: %d %v", d, ok)
	}
}

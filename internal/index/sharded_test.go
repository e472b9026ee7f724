package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randomDocs generates a deterministic stream of documents from seed.
func randomDocs(seed int64, n int) []*Document {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"goal", "match", "vote", "budget", "storm", "crowd", "anthem", "strike"}
	docs := make([]*Document, n)
	for i := range docs {
		d := NewDocument(fmt.Sprintf("d%03d", i))
		for j := 0; j < 1+rng.Intn(6); j++ {
			d.AddTerms(FieldText, vocab[rng.Intn(len(vocab))])
		}
		if rng.Intn(2) == 0 {
			d.SetTermCount(FieldConcept, vocab[rng.Intn(len(vocab))], 1+rng.Intn(9))
		}
		docs[i] = d
	}
	return docs
}

// buildRoundRobin deals docs round-robin over n Builders and
// assembles the segments with NewSharded.
func buildRoundRobin(t *testing.T, docs []*Document, n int) *Sharded {
	t.Helper()
	builders := make([]*Builder, n)
	for i := range builders {
		builders[i] = NewBuilder()
	}
	for i, d := range docs {
		if err := builders[i%n].AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	segs := make([]*Index, n)
	for i, b := range builders {
		segs[i] = b.Build()
	}
	sh, err := NewSharded(segs)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// buildBoth builds a single index and an n-segment sharded index from
// the same document stream.
func buildBoth(t *testing.T, seed int64, docs, n int) (*Index, *Sharded) {
	t.Helper()
	single := NewBuilder()
	for _, d := range randomDocs(seed, docs) {
		if err := single.AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	// Documents are reusable after AddDocument; regenerate anyway so
	// neither build can observe the other's ingestion.
	return single.Build(), buildRoundRobin(t, randomDocs(seed, docs), n)
}

func TestShardedGlobalStatsMatchSingle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		single, sh := buildBoth(t, 42, 23, n)
		if sh.NumSegments() != n {
			t.Fatalf("NumSegments = %d, want %d", sh.NumSegments(), n)
		}
		if sh.NumDocs() != single.NumDocs() {
			t.Fatalf("n=%d: NumDocs %d vs %d", n, sh.NumDocs(), single.NumDocs())
		}
		for f := Field(0); f < numFields; f++ {
			if sh.TotalFieldLen(f) != single.TotalFieldLen(f) {
				t.Errorf("n=%d f=%s: TotalFieldLen %d vs %d", n, f, sh.TotalFieldLen(f), single.TotalFieldLen(f))
			}
			if sh.AvgDocLen(f) != single.AvgDocLen(f) {
				t.Errorf("n=%d f=%s: AvgDocLen %v vs %v", n, f, sh.AvgDocLen(f), single.AvgDocLen(f))
			}
			for _, term := range vocabulary(single, f) {
				if sh.DocFreq(f, term) != single.DocFreq(f, term) {
					t.Errorf("n=%d: df(%s) %d vs %d", n, term, sh.DocFreq(f, term), single.DocFreq(f, term))
				}
				if sh.CollectionFreq(f, term) != single.CollectionFreq(f, term) {
					t.Errorf("n=%d: cf(%s) %d vs %d", n, term, sh.CollectionFreq(f, term), single.CollectionFreq(f, term))
				}
			}
		}
	}
}

func TestShardedGlobalDocIDsMatchInsertionOrder(t *testing.T) {
	single, sh := buildBoth(t, 7, 17, 3)
	for i := 0; i < single.NumDocs(); i++ {
		want := single.ExternalID(DocID(i))
		if got := sh.ExternalID(DocID(i)); got != want {
			t.Errorf("ExternalID(%d) = %q, want %q", i, got, want)
		}
		if sh.DocLen(FieldText, DocID(i)) != single.DocLen(FieldText, DocID(i)) {
			t.Errorf("DocLen(%d) mismatch", i)
		}
		d, ok := sh.DocIDOf(want)
		if !ok || d != DocID(i) {
			t.Errorf("DocIDOf(%q) = %d,%v, want %d", want, d, ok, i)
		}
	}
	if _, ok := sh.DocIDOf("nope"); ok {
		t.Error("DocIDOf found unknown id")
	}
}

func TestShardedSegmentsSelfContained(t *testing.T) {
	_, sh := buildBoth(t, 3, 20, 4)
	// Round-robin: segment sizes differ by at most one and sum to total.
	total := 0
	for i := 0; i < sh.NumSegments(); i++ {
		size := sh.Segment(i).NumDocs()
		if size != 5 {
			t.Errorf("segment %d holds %d docs, want 5", i, size)
		}
		total += size
	}
	if total != sh.NumDocs() {
		t.Errorf("segment sizes sum to %d, want %d", total, sh.NumDocs())
	}
	// Per-segment df never exceeds the global df.
	for i := 0; i < sh.NumSegments(); i++ {
		seg := sh.Segment(i)
		for _, term := range vocabulary(seg, FieldText) {
			if seg.DocFreq(FieldText, term) > sh.DocFreq(FieldText, term) {
				t.Errorf("segment %d df(%s) exceeds global", i, term)
			}
		}
	}
}

// The sharded build deals documents round-robin over per-segment
// Builders and assembles them with NewSharded; external IDs must be
// unique across the whole sharded index, not just within a segment.
func TestShardedBuilderRejectsDuplicatesAcrossSegments(t *testing.T) {
	builders := []*Builder{NewBuilder(), NewBuilder()}
	docs := []*Document{
		NewDocument("dup").AddTerms(FieldText, "a"),
		// The duplicate lands in the *other* segment, where the
		// per-segment builder cannot catch it.
		NewDocument("dup").AddTerms(FieldText, "b"),
	}
	for i, d := range docs {
		if err := builders[i%len(builders)].AddDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	_, err := NewSharded([]*Index{builders[0].Build(), builders[1].Build()})
	if err == nil || !strings.Contains(err.Error(), "more than one segment") {
		t.Fatalf("duplicate across segments accepted (err=%v)", err)
	}
	if err := NewBuilder().AddDocument(NewDocument("").AddTerms(FieldText, "c")); err == nil {
		t.Fatal("empty external id accepted")
	}
}

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(nil); err == nil {
		t.Error("empty segment list accepted")
	}
	if _, err := NewSharded([]*Index{nil}); err == nil {
		t.Error("nil segment accepted")
	}
	// Violates the round-robin balance invariant: 2 docs + 0 docs.
	b := NewBuilder()
	for _, ext := range []string{"a", "b"} {
		if err := b.AddDocument(NewDocument(ext).AddTerms(FieldText, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewSharded([]*Index{b.Build(), NewBuilder().Build()}); err == nil {
		t.Error("unbalanced segments accepted")
	}
	// Duplicate external ids across hand-assembled segments.
	b1 := NewBuilder()
	if err := b1.AddDocument(NewDocument("a").AddTerms(FieldText, "x")); err != nil {
		t.Fatal(err)
	}
	b2 := NewBuilder()
	if err := b2.AddDocument(NewDocument("a").AddTerms(FieldText, "y")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSharded([]*Index{b1.Build(), b2.Build()}); err == nil {
		t.Error("duplicate external ids across segments accepted")
	}
}

package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// buildSmall indexes four documents with known statistics.
func buildSmall(t testing.TB) *Index {
	t.Helper()
	b := NewBuilder()
	docs := []struct {
		ext      string
		text     []string
		concepts []string
	}{
		{"d0", []string{"goal", "match", "goal"}, []string{"stadium"}},
		{"d1", []string{"match", "referee"}, []string{"stadium", "crowd"}},
		{"d2", []string{"budget", "vote", "vote", "vote"}, nil},
		{"d3", []string{"goal"}, []string{"crowd"}},
	}
	for _, d := range docs {
		doc := NewDocument(d.ext).AddTerms(FieldText, d.text...)
		doc.AddTerms(FieldConcept, d.concepts...)
		if err := b.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBasicStats(t *testing.T) {
	ix := buildSmall(t)
	if ix.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if df := ix.DocFreq(FieldText, "goal"); df != 2 {
		t.Errorf("df(goal) = %d, want 2", df)
	}
	if cf := ix.CollectionFreq(FieldText, "goal"); cf != 3 {
		t.Errorf("cf(goal) = %d, want 3", cf)
	}
	if df := ix.DocFreq(FieldText, "missing"); df != 0 {
		t.Errorf("df(missing) = %d", df)
	}
	if got := ix.DocLen(FieldText, 2); got != 4 {
		t.Errorf("DocLen(d2) = %d, want 4", got)
	}
	if got := ix.AvgDocLen(FieldText); got != (3+2+4+1)/4.0 {
		t.Errorf("AvgDocLen = %v", got)
	}
	if got := ix.TotalFieldLen(FieldConcept); got != 4 {
		t.Errorf("TotalFieldLen(concept) = %d, want 4", got)
	}
	if n := ix.NumTerms(FieldText); n != 5 {
		t.Errorf("NumTerms = %d, want 5", n)
	}
}

func TestExternalIDMapping(t *testing.T) {
	ix := buildSmall(t)
	for i := 0; i < ix.NumDocs(); i++ {
		ext := ix.ExternalID(DocID(i))
		id, ok := ix.DocIDOf(ext)
		if !ok || id != DocID(i) {
			t.Errorf("round trip %d -> %q -> %d (%v)", i, ext, id, ok)
		}
	}
	if _, ok := ix.DocIDOf("nope"); ok {
		t.Error("DocIDOf(nope) should miss")
	}
}

func TestPostingsIteration(t *testing.T) {
	ix := buildSmall(t)
	it := ix.PostingsFor(FieldText, "goal")
	type pair struct {
		d  DocID
		tf int
	}
	var got []pair
	for it.Next() {
		got = append(got, pair{it.Doc(), it.TF()})
	}
	want := []pair{{0, 2}, {3, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("postings = %v, want %v", got, want)
	}
	if it.Next() {
		t.Error("Next after exhaustion should stay false")
	}
	// Missing term yields an exhausted iterator.
	it = ix.PostingsFor(FieldText, "absent")
	if it.Next() {
		t.Error("missing term should give exhausted iterator")
	}
}

func TestPostingsRemaining(t *testing.T) {
	ix := buildSmall(t)
	it := ix.PostingsFor(FieldText, "match")
	if it.Remaining() != 2 {
		t.Errorf("Remaining = %d, want 2", it.Remaining())
	}
	it.Next()
	if it.Remaining() != 1 {
		t.Errorf("Remaining after one Next = %d, want 1", it.Remaining())
	}
}

// vocabulary collects field f's sorted terms through EachTerm.
func vocabulary(ix *Index, f Field) []string {
	var terms []string
	ix.EachTerm(f, func(term string, _ int, _ int64) bool {
		terms = append(terms, term)
		return true
	})
	return terms
}

func TestEachTerm(t *testing.T) {
	ix := buildSmall(t)
	var terms []string
	ix.EachTerm(FieldText, func(term string, df int, cf int64) bool {
		terms = append(terms, term)
		if df != ix.DocFreq(FieldText, term) {
			t.Errorf("EachTerm df(%q)=%d, DocFreq says %d", term, df, ix.DocFreq(FieldText, term))
		}
		if cf != ix.CollectionFreq(FieldText, term) {
			t.Errorf("EachTerm cf(%q)=%d, CollectionFreq says %d", term, cf, ix.CollectionFreq(FieldText, term))
		}
		return true
	})
	if len(terms) != ix.NumTerms(FieldText) {
		t.Errorf("EachTerm visited %d terms, vocabulary has %d", len(terms), ix.NumTerms(FieldText))
	}
	for i := 1; i < len(terms); i++ {
		if terms[i-1] >= terms[i] {
			t.Fatalf("EachTerm order not sorted: %v", terms)
		}
	}
	// Early stop.
	n := 0
	ix.EachTerm(FieldText, func(string, int, int64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("EachTerm ignored early stop (visited %d)", n)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if err := b.AddDocument(NewDocument("")); err == nil {
		t.Error("empty ext id accepted")
	}
	if err := b.AddDocument(NewDocument("x").AddTerms(FieldText, "a")); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDocument(NewDocument("x")); err == nil {
		t.Error("duplicate ext id accepted")
	}
	b.Build()
	if err := b.AddDocument(NewDocument("y")); err == nil {
		t.Error("AddDocument after Build accepted")
	}
}

func TestSetTermCount(t *testing.T) {
	b := NewBuilder()
	doc := NewDocument("d").SetTermCount(FieldConcept, "crowd", 7)
	doc.SetTermCount(FieldConcept, "flag", 3)
	doc.SetTermCount(FieldConcept, "flag", 0) // removal
	if err := b.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	ix := b.Build()
	it := ix.PostingsFor(FieldConcept, "crowd")
	if !it.Next() || it.TF() != 7 {
		t.Error("SetTermCount weight not preserved")
	}
	if ix.DocFreq(FieldConcept, "flag") != 0 {
		t.Error("zeroed term still indexed")
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := NewBuilder().Build()
	if ix.NumDocs() != 0 || ix.AvgDocLen(FieldText) != 0 {
		t.Error("empty index stats wrong")
	}
	if it := ix.PostingsFor(FieldText, "x"); it.Next() {
		t.Error("empty index has postings")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	ix := buildSmall(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, got)
}

func TestSaveLoad(t *testing.T) {
	ix := buildSmall(t)
	path := filepath.Join(t.TempDir(), "test.ivridx")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, got)
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.ivridx")); err == nil {
		t.Error("loading missing file should fail")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not an index at all")); !errors.Is(err, ErrBadFormat) {
		t.Errorf("garbage accepted: %v", err)
	}
	if _, err := Read(strings.NewReader("")); !errors.Is(err, ErrBadFormat) {
		t.Errorf("empty accepted: %v", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	ix := buildSmall(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a payload byte: checksum must catch it.
	corrupt := make([]byte, len(raw))
	copy(corrupt, raw)
	corrupt[len(magic)+3] ^= 0xFF
	if _, err := Read(bytes.NewReader(corrupt)); !errors.Is(err, ErrChecksum) {
		t.Errorf("corruption err = %v, want ErrChecksum", err)
	}
	// Truncation.
	if _, err := Read(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated file accepted")
	}
	// Wrong magic.
	wrong := make([]byte, len(raw))
	copy(wrong, raw)
	wrong[0] = 'X'
	if _, err := Read(bytes.NewReader(wrong)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("wrong magic err = %v, want ErrBadFormat", err)
	}
}

// TestReadRejectsOlderVersions: a v1 or v2 file is ErrBadFormat, even
// with an intact payload and CRC; older indexes are rebuilt, not
// migrated.
func TestReadRejectsOlderVersions(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildSmall(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{1, 2} {
		raw := bytes.Clone(buf.Bytes())
		raw[len(magic)-1] = version
		if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("IVRIDX v%d: err = %v, want ErrBadFormat", version, err)
		}
	}
}

func assertIndexesEqual(t *testing.T, want, got *Index) {
	t.Helper()
	if got.NumDocs() != want.NumDocs() {
		t.Fatalf("NumDocs %d != %d", got.NumDocs(), want.NumDocs())
	}
	for i := 0; i < want.NumDocs(); i++ {
		if got.ExternalID(DocID(i)) != want.ExternalID(DocID(i)) {
			t.Fatalf("extID[%d] differs", i)
		}
	}
	for f := Field(0); f < numFields; f++ {
		if !reflect.DeepEqual(vocabulary(got, f), vocabulary(want, f)) {
			t.Fatalf("field %v terms differ", f)
		}
		if got.AvgDocLen(f) != want.AvgDocLen(f) {
			t.Fatalf("field %v avgdl differs", f)
		}
		for _, term := range vocabulary(want, f) {
			if got.DocFreq(f, term) != want.DocFreq(f, term) {
				t.Fatalf("df(%v,%q) differs", f, term)
			}
			if got.CollectionFreq(f, term) != want.CollectionFreq(f, term) {
				t.Fatalf("cf(%v,%q) differs", f, term)
			}
			wi, gi := want.PostingsFor(f, term), got.PostingsFor(f, term)
			for wi.Next() {
				if !gi.Next() || gi.Doc() != wi.Doc() || gi.TF() != wi.TF() {
					t.Fatalf("postings(%v,%q) differ", f, term)
				}
			}
			if gi.Next() {
				t.Fatalf("postings(%v,%q): extra entries", f, term)
			}
		}
	}
}

// randomIndex builds an index over a random corpus, returning the
// ground-truth per-doc counts for verification.
func randomIndex(r *rand.Rand, nDocs, vocab int) (*Index, []map[string]int) {
	b := NewBuilder()
	truth := make([]map[string]int, nDocs)
	for i := 0; i < nDocs; i++ {
		counts := map[string]int{}
		nTerms := r.Intn(30)
		doc := NewDocument(fmt.Sprintf("doc-%d", i))
		for j := 0; j < nTerms; j++ {
			term := fmt.Sprintf("t%03d", r.Intn(vocab))
			counts[term]++
			doc.AddTerms(FieldText, term)
		}
		truth[i] = counts
		if err := b.AddDocument(doc); err != nil {
			panic(err)
		}
	}
	return b.Build(), truth
}

// Property: for random corpora, iterating every term's postings
// reconstructs exactly the ingested term counts.
func TestPropertyPostingsReconstructCorpus(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix, truth := randomIndex(r, 1+r.Intn(50), 40)
		recon := make([]map[string]int, ix.NumDocs())
		for i := range recon {
			recon[i] = map[string]int{}
		}
		for _, term := range vocabulary(ix, FieldText) {
			it := ix.PostingsFor(FieldText, term)
			for it.Next() {
				recon[it.Doc()][term] += it.TF()
			}
		}
		for i := range truth {
			if len(truth[i]) == 0 && len(recon[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(truth[i], recon[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: serialisation round-trips random indexes exactly.
func TestPropertyPersistRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix, _ := randomIndex(r, 1+r.Intn(30), 25)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.NumDocs() != ix.NumDocs() {
			return false
		}
		for _, term := range vocabulary(ix, FieldText) {
			a, b := ix.PostingsFor(FieldText, term), got.PostingsFor(FieldText, term)
			for a.Next() {
				if !b.Next() || a.Doc() != b.Doc() || a.TF() != b.TF() {
					return false
				}
			}
			if b.Next() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: postings doc ids are strictly increasing within a term.
func TestPropertyPostingsSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix, _ := randomIndex(r, 1+r.Intn(60), 15)
		for f := Field(0); f < numFields; f++ {
			for _, term := range vocabulary(ix, f) {
				it := ix.PostingsFor(f, term)
				last := -1
				for it.Next() {
					if int(it.Doc()) <= last {
						return false
					}
					if it.TF() <= 0 {
						return false
					}
					last = int(it.Doc())
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestFieldString(t *testing.T) {
	if FieldText.String() != "text" || FieldConcept.String() != "concept" {
		t.Error("field names wrong")
	}
	if !strings.Contains(Field(9).String(), "9") {
		t.Error("unknown field String")
	}
}

func BenchmarkBuild1k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	type doc struct {
		ext   string
		terms []string
	}
	docs := make([]doc, 1000)
	for i := range docs {
		n := 20 + r.Intn(50)
		terms := make([]string, n)
		for j := range terms {
			terms[j] = fmt.Sprintf("t%04d", r.Intn(2000))
		}
		docs[i] = doc{ext: fmt.Sprintf("d%d", i), terms: terms}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder()
		for _, d := range docs {
			if err := bld.AddDocument(NewDocument(d.ext).AddTerms(FieldText, d.terms...)); err != nil {
				b.Fatal(err)
			}
		}
		bld.Build()
	}
}

func BenchmarkPostingsScan(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	ix, _ := randomIndex(r, 5000, 100)
	terms := vocabulary(ix, FieldText)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := ix.PostingsFor(FieldText, terms[i%len(terms)])
		for it.Next() {
		}
	}
}

// TestDocumentResetReuse: one Document reused through Reset builds the
// same bytes as a fresh Document per call.
func TestDocumentResetReuse(t *testing.T) {
	fresh, reused := NewBuilder(), NewBuilder()
	doc := NewDocument("")
	for _, d := range randomDocs(9, 40) {
		if err := fresh.AddDocument(d); err != nil {
			t.Fatal(err)
		}
		doc.Reset(d.ext)
		for f, m := range d.counts {
			for term, n := range m {
				doc.SetTermCount(Field(f), term, n)
			}
		}
		if err := reused.AddDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	var want, got bytes.Buffer
	if _, err := fresh.Build().WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := reused.Build().WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("index built from a reused Document differs from one built from fresh Documents")
	}
}

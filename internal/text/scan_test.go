package text

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// refTokenize is the tokenizer as it stood before the shared scanner:
// a strings.Builder per token, truncated after the fact. It is the
// reference FuzzScan holds Tokenize and Scan to.
func refTokenize(maxLen int, text string) []Token {
	if maxLen <= 0 {
		maxLen = DefaultMaxTokenLen
	}
	var (
		tokens []Token
		sb     strings.Builder
		start  = -1
		pos    = 0
	)
	flush := func() {
		if sb.Len() == 0 {
			start = -1
			return
		}
		term := sb.String()
		sb.Reset()
		if len(term) > maxLen {
			term = term[:maxLen]
		}
		tokens = append(tokens, Token{Term: term, Position: pos, Offset: start})
		pos++
		start = -1
	}
	for i, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if start < 0 {
				start = i
			}
			sb.WriteRune(unicode.ToLower(r))
		case (r == '\'' || r == '-') && sb.Len() > 0:
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// refTerms is the analyser's term list as it stood before Scan: stop
// the raw token, then stem it, then drop an empty stem.
func refTerms(a *Analyzer, text string) []string {
	var out []string
	for _, tk := range refTokenize(a.tokenizer.MaxTokenLen, text) {
		if a.stops.Contains(tk.Term) {
			continue
		}
		if a.stem {
			tk.Term = Stem(tk.Term)
		}
		if tk.Term == "" {
			continue
		}
		out = append(out, tk.Term)
	}
	return out
}

func scanTerms(a *Analyzer, text string, memo map[string]string) []string {
	var out []string
	a.Scan(text, memo, func(term string) { out = append(out, term) })
	return out
}

// scanCorpus seeds FuzzScan and pre-warms its memos: apostrophes and
// hyphens at token start, middle and end, leading punctuation, a token
// over 64 bytes, mixed case, accented, German, Cyrillic and non-ASCII
// digit input, and the apostrophe stopwords the tokenizer can never
// match.
var scanCorpus = []string{
	"",
	"The footballers were running towards the goals",
	"o'clock one-o-clock 'quoted' -dash trailing' trailing- a--b c''d",
	"...leading, ;punct: (parens) [brackets] \"quotes\"",
	strings.Repeat("supercalifragilistic", 5) + " short",
	"MiXeD CaSe BBC News AT One O'Clock",
	"café naïve résumé ÉCOLE",
	"Straße STRASSE groß",
	"Москва Кремль НОВОСТИ",
	"٣٤٥ ४२ 2008 g8 ２０２６",
	"don't she'll shell hell won't wont",
	"bad\xffutf8\xc3 bytes",
}

func FuzzScan(f *testing.F) {
	for _, s := range scanCorpus {
		f.Add(s)
	}
	custom := StopSet{}
	custom.Add("news", "the", "goal")
	analyzers := map[string]*Analyzer{
		"default":  NewAnalyzer(),
		"nostem":   NewAnalyzer(WithoutStemming()),
		"stopset":  NewAnalyzer(WithStopSet(custom)),
		"maxlen=3": NewAnalyzer(WithMaxTokenLen(3)),
	}
	// One pre-warmed memo per analyzer: a memo holds one analyzer's
	// results, so it is never shared between configurations.
	warm := make(map[string]map[string]string, len(analyzers))
	for name, a := range analyzers {
		warm[name] = make(map[string]string)
		for _, s := range scanCorpus {
			scanTerms(a, s, warm[name])
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		for name, a := range analyzers {
			want := refTerms(a, input)
			if got := a.Terms(input); !slices.Equal(got, want) {
				t.Fatalf("%s: Terms(%q) = %q, want %q", name, input, got, want)
			}
			if got := scanTerms(a, input, nil); !slices.Equal(got, want) {
				t.Fatalf("%s: Scan(%q) fresh memo = %q, want %q", name, input, got, want)
			}
			if got := scanTerms(a, input, warm[name]); !slices.Equal(got, want) {
				t.Fatalf("%s: Scan(%q) warm memo = %q, want %q", name, input, got, want)
			}
			wantToks := refTokenize(a.tokenizer.MaxTokenLen, input)
			if got := a.tokenizer.Tokenize(input); !reflect.DeepEqual(got, wantToks) {
				t.Fatalf("%s: Tokenize(%q) = %v, want %v", name, input, got, wantToks)
			}
		}
	})
}

// TestApostropheStopwordsNeverMatch pins a quirk Scan must keep: the
// tokenizer drops apostrophes, so stopwords spelled with one ("don't",
// "she'll") can never match, and their apostrophe-free spellings
// ("dont", "shell") are content words.
func TestApostropheStopwordsNeverMatch(t *testing.T) {
	a := NewAnalyzer()
	want := []string{"dont", "shell", "shell", "hell"}
	for _, got := range [][]string{a.Terms("don't she'll shell hell"), scanTerms(a, "don't she'll shell hell", nil)} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("terms = %q, want %q", got, want)
		}
	}
}

func TestScanWarmMemoAllocatesNothing(t *testing.T) {
	a := NewAnalyzer()
	transcript := strings.Repeat("Good afternoon. The Prime Minister's spokesman said talks on the one-year budget would resume at one o'clock today. ", 8)
	memo := make(map[string]string)
	n := 0
	count := func(string) { n++ }
	a.Scan(transcript, memo, count)
	if allocs := testing.AllocsPerRun(100, func() { a.Scan(transcript, memo, count) }); allocs != 0 {
		t.Fatalf("Scan with a warm memo allocates %.1f times per call, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("Scan yielded no terms")
	}
}

func BenchmarkScan(b *testing.B) {
	a := NewAnalyzer()
	input := strings.Repeat("the prime minister announced a new policy on football stadium funding today ", 20)
	memo := make(map[string]string)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Scan(input, memo, func(string) {})
	}
}

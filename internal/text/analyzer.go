package text

// Analyzer is the full lexical pipeline: tokenise, drop stopwords,
// stem. The zero value is NOT ready to use; construct with NewAnalyzer
// so the stopword set is populated. An Analyzer is safe for concurrent
// use: all of its state is read-only after construction, and Scan's
// word memo is a parameter the caller owns, never a field.
type Analyzer struct {
	tokenizer Tokenizer
	stops     StopSet
	stem      bool
}

// AnalyzerOption customises an Analyzer.
type AnalyzerOption func(*Analyzer)

// WithoutStemming disables the Porter stemming stage.
func WithoutStemming() AnalyzerOption {
	return func(a *Analyzer) { a.stem = false }
}

// WithStopSet replaces the default stopword set. Pass an empty StopSet
// to disable stopping entirely.
func WithStopSet(s StopSet) AnalyzerOption {
	return func(a *Analyzer) { a.stops = s }
}

// WithMaxTokenLen overrides the tokeniser's maximum token length.
func WithMaxTokenLen(n int) AnalyzerOption {
	return func(a *Analyzer) { a.tokenizer.MaxTokenLen = n }
}

// NewAnalyzer builds the default news-transcript pipeline: lower-case
// word tokenisation, English stopword removal, Porter stemming.
func NewAnalyzer(opts ...AnalyzerOption) *Analyzer {
	a := &Analyzer{
		stops: DefaultStopSet(),
		stem:  true,
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Analyze runs the pipeline and returns the surviving tokens. Positions
// are re-numbered over the surviving tokens so downstream consumers see
// a dense position space; Offset still points into the original text.
func (a *Analyzer) Analyze(input string) []Token {
	raw := a.tokenizer.Tokenize(input)
	out := raw[:0]
	for _, tk := range raw {
		if tk.Term = a.term(tk.Term); tk.Term == "" {
			continue
		}
		tk.Position = len(out)
		out = append(out, tk)
	}
	return out
}

// term maps one raw token to its analysed term: "" when the token is a
// stopword or stems to nothing, else its (optional) Porter stem.
func (a *Analyzer) term(raw string) string {
	if a.stops.Contains(raw) {
		return ""
	}
	if a.stem {
		return Stem(raw)
	}
	return raw
}

// Scan streams the terms Terms(input) returns, in the same order, to
// fn. It is the bulk-indexing entry point: memo maps each raw token
// already seen to its analysed term ("" for a stopped word), so the
// stopword lookup and the stemmer run once per distinct word, and a
// token already in the memo costs no allocation. The memo belongs to
// the caller, one per goroutine and per Analyzer, and is filled as a
// side effect; a nil memo gets a fresh one for this call. Never share
// a memo across goroutines or keep one fed by untrusted text: it grows
// with every distinct word it sees.
func (a *Analyzer) Scan(input string, memo map[string]string, fn func(term string)) {
	if memo == nil {
		memo = make(map[string]string)
	}
	var arr [DefaultMaxTokenLen]byte
	buf := arr[:0]
	sc := scanner{text: input, maxLen: a.tokenizer.maxLen()}
	for {
		raw, _, ok := sc.next(buf[:0])
		if !ok {
			return
		}
		buf = raw
		term, seen := memo[string(raw)]
		if !seen {
			key := string(raw)
			term = a.term(key)
			memo[key] = term
		}
		if term != "" {
			fn(term)
		}
	}
}

// Terms runs the pipeline and returns only the surviving term strings.
func (a *Analyzer) Terms(input string) []string {
	toks := a.Analyze(input)
	terms := make([]string, len(toks))
	for i, tk := range toks {
		terms[i] = tk.Term
	}
	return terms
}

// TermCounts runs the pipeline and returns a term-frequency map, the
// representation the indexer and the feedback models consume.
func (a *Analyzer) TermCounts(input string) map[string]int {
	counts := make(map[string]int)
	for _, tk := range a.Analyze(input) {
		counts[tk.Term]++
	}
	return counts
}

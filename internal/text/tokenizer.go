// Package text provides the lexical analysis pipeline used by the
// retrieval engine: tokenisation, stopword filtering and Porter stemming.
//
// The pipeline is deliberately self-contained (stdlib only) and
// deterministic: the same input always yields the same token stream, a
// property the simulation and experiment harnesses rely on.
//
// Analyzer.Terms and Analyze serve queries. Analyzer.Scan serves bulk
// indexing: it yields the same terms through a callback and takes a
// caller-owned memo from raw word to analysed term, so each distinct
// word is stopped and stemmed once and repeated words cost no
// allocation. A memo belongs to one goroutine and one Analyzer and is
// never shared; the package keeps no cache of its own, because query
// text is untrusted and a shared memo would grow with it.
package text

import (
	"unicode"
	"unicode/utf8"
)

// Token is a single lexical unit produced by the Tokenizer. Position is
// the zero-based index of the token in the token stream (after any
// filtering performed upstream of the consumer), and Offset is the byte
// offset of the token's first byte in the original input.
type Token struct {
	Term     string
	Position int
	Offset   int
}

// Tokenizer splits text into lower-cased word tokens. It treats letter
// and digit runs as token constituents, splits on everything else, and
// preserves intra-word apostrophes and hyphens by dropping them rather
// than splitting (so "o'clock" becomes "oclock" and "one-o-clock"
// becomes "oneoclock"), which keeps broadcast-news vocabulary such as
// programme names stable under noisy punctuation.
type Tokenizer struct {
	// MaxTokenLen truncates pathological tokens; zero means the
	// DefaultMaxTokenLen is applied.
	MaxTokenLen int
}

// DefaultMaxTokenLen bounds a single token's length in bytes.
const DefaultMaxTokenLen = 64

// Tokenize returns the token stream for the input text.
func (t Tokenizer) Tokenize(text string) []Token {
	var (
		tokens []Token
		arr    [DefaultMaxTokenLen]byte
		buf    = arr[:0]
	)
	sc := scanner{text: text, maxLen: t.maxLen()}
	for {
		raw, offset, ok := sc.next(buf[:0])
		if !ok {
			return tokens
		}
		buf = raw
		tokens = append(tokens, Token{Term: string(raw), Position: len(tokens), Offset: offset})
	}
}

func (t Tokenizer) maxLen() int {
	if t.MaxTokenLen <= 0 {
		return DefaultMaxTokenLen
	}
	return t.MaxTokenLen
}

// scanner is the one implementation of the tokenisation rules; both
// Tokenize and Analyzer.Scan walk their input with it.
type scanner struct {
	text   string
	maxLen int
	i      int // byte position of the next rune to read
}

// next appends the next raw token — lower-cased, apostrophe/hyphen
// joined, truncated to maxLen bytes — to buf and returns it with the
// byte offset of its first letter or digit; ok is false at the end of
// the text. ASCII is classified and lower-cased byte by byte; other
// runes go through unicode. The result aliases buf, so a caller passing
// a stack buffer of sufficient size scans without allocating.
func (s *scanner) next(buf []byte) (raw []byte, offset int, ok bool) {
	offset = -1
	for s.i < len(s.text) {
		c, r, w := s.text[s.i], rune(s.text[s.i]), 1
		var word bool
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			word = 'a' <= c && c <= 'z' || '0' <= c && c <= '9'
		} else {
			r, w = utf8.DecodeRuneInString(s.text[s.i:])
			word = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		s.i += w
		switch {
		case word:
			if offset < 0 {
				offset = s.i - w
			}
			// Appending stops at maxLen; the cut below drops the tail
			// of a multi-byte rune that straddles it.
			switch {
			case len(buf) >= s.maxLen:
			case c < utf8.RuneSelf:
				buf = append(buf, c)
			default:
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
			}
		case (r == '\'' || r == '-') && offset >= 0:
			// Join pieces across intra-word apostrophes/hyphens.
		case offset >= 0:
			return buf[:min(len(buf), s.maxLen)], offset, true
		}
	}
	return buf[:min(len(buf), s.maxLen)], offset, offset >= 0
}

// Terms is a convenience wrapper returning only the token terms.
func (t Tokenizer) Terms(text string) []string {
	toks := t.Tokenize(text)
	out := make([]string, len(toks))
	for i, tk := range toks {
		out[i] = tk.Term
	}
	return out
}

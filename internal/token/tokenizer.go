// Package token provides deterministic tokenization and cost accounting for
// the simulated LLM stack.
//
// The tokenizer is a word-piece style tokenizer: input text is split into
// words, numbers and punctuation runs, and long words are further split into
// fixed-size pieces. It is not byte-pair encoding, but it produces stable,
// realistic token counts (roughly 1.3 tokens per English word), which is all
// the billing and benchmarking layers need.
//
// The tokenizer is pooled: Each streams pieces through a callback using a
// scratch buffer from a package-level pool, so the hot serving path
// (embedding) tokenizes without allocating. Each, Tokenize and Count are
// all one rune-class walk, so they cannot disagree about token counts;
// Count runs it without a piece sink, so it neither takes a buffer nor
// lowercases a rune.
package token

import (
	"sync"
	"unicode"
	"unicode/utf8"
)

// MaxPiece is the maximum length, in runes, of a single word piece. Words
// longer than MaxPiece are split into consecutive pieces of at most this
// length, mirroring how sub-word tokenizers fragment rare words.
const MaxPiece = 6

// Tokenizer splits text into word pieces. The zero value is ready to use.
type Tokenizer struct{}

// pieceBufPool holds the scratch buffers Each accumulates pieces in. A
// piece is at most MaxPiece runes of at most utf8.UTFMax bytes each, so a
// buffer never grows past its initial capacity.
var pieceBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, MaxPiece*utf8.UTFMax)
		return &b
	},
}

// Each calls fn once per token piece of text, in order, without
// materializing a slice. The slice passed to fn holds the piece's UTF-8
// bytes in a pooled scratch buffer that is reused for the next piece —
// fn must not retain it (copy via string(piece) to keep it).
func (Tokenizer) Each(text string, fn func(piece []byte)) {
	bp := pieceBufPool.Get().(*[]byte)
	*bp, _ = walk(text, (*bp)[:0], fn)
	pieceBufPool.Put(bp)
}

// Count returns the number of tokens in text without materializing them.
// Count(s) == len(Tokenize(s)) holds by construction: both are the same
// walk.
func (Tokenizer) Count(text string) int {
	_, n := walk(text, nil, nil)
	return n
}

// walk is the scan underneath Each and Count: it splits text into pieces
// and returns how many there are. With a non-nil fn it also accumulates
// each piece, lowercased, in b and passes it to fn, returning b emptied;
// with a nil fn it only classifies runes and counts.
func walk(text string, b []byte, fn func(piece []byte)) ([]byte, int) {
	n, runes := 0, 0
	for _, r := range text {
		switch {
		case 'a' <= r && r <= 'z' || '0' <= r && r <= '9':
			if fn != nil {
				b = append(b, byte(r))
			}
			if runes++; runes == MaxPiece {
				b, n, runes = endWord(b, n, runes, fn)
			}
		case 'A' <= r && r <= 'Z':
			if fn != nil {
				b = append(b, byte(r+'a'-'A'))
			}
			if runes++; runes == MaxPiece {
				b, n, runes = endWord(b, n, runes, fn)
			}
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
			b, n, runes = endWord(b, n, runes, fn)
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if fn != nil {
				b = utf8.AppendRune(b, unicode.ToLower(r))
			}
			if runes++; runes == MaxPiece {
				b, n, runes = endWord(b, n, runes, fn)
			}
		case unicode.IsSpace(r):
			b, n, runes = endWord(b, n, runes, fn)
		default:
			// Punctuation: end the current word; the mark is its own
			// single-rune piece, unlowered.
			b, n, runes = endWord(b, n, runes, fn)
			n++
			if fn != nil {
				fn(utf8.AppendRune(b, r))
			}
		}
	}
	b, n, _ = endWord(b, n, runes, fn)
	return b, n
}

// endWord closes walk's current word of runes runes, if there is one: it
// counts it and, with a sink, passes it to fn and empties b.
func endWord(b []byte, n, runes int, fn func(piece []byte)) ([]byte, int, int) {
	if runes > 0 {
		n++
		if fn != nil {
			fn(b)
			b = b[:0]
		}
	}
	return b, n, 0
}

// Count is a convenience wrapper around Tokenizer.Count using the default
// tokenizer.
func Count(text string) int { return Tokenizer{}.Count(text) }

// Tokenize returns the word pieces of text, in order: the materialized
// form of Each.
//
//llmdm:allow reach the reference the tokenizer tests and embed's hash reference test compare the streaming scan against
func Tokenize(text string) (out []string) {
	Tokenizer{}.Each(text, func(piece []byte) { out = append(out, string(piece)) })
	return out
}

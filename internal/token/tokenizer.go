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
// (embedding, token counting) tokenizes without allocating. Tokenize and
// Count are both built on Each — one scan, structurally incapable of
// disagreeing about token counts.
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
//
// Each is the allocation-free scan underneath both Tokenize and Count.
func (Tokenizer) Each(text string, fn func(piece []byte)) {
	bp := pieceBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	runes := 0
	for _, r := range text {
		switch {
		case 'a' <= r && r <= 'z' || '0' <= r && r <= '9':
			b = append(b, byte(r))
			runes++
			if runes == MaxPiece {
				fn(b)
				b, runes = b[:0], 0
			}
		case 'A' <= r && r <= 'Z':
			b = append(b, byte(r+'a'-'A'))
			runes++
			if runes == MaxPiece {
				fn(b)
				b, runes = b[:0], 0
			}
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
			if runes > 0 {
				fn(b)
				b, runes = b[:0], 0
			}
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b = utf8.AppendRune(b, unicode.ToLower(r))
			runes++
			if runes == MaxPiece {
				fn(b)
				b, runes = b[:0], 0
			}
		case unicode.IsSpace(r):
			if runes > 0 {
				fn(b)
				b, runes = b[:0], 0
			}
		default:
			// Punctuation: flush the current word, then emit the mark as
			// its own single-rune piece, unlowered.
			if runes > 0 {
				fn(b)
				b, runes = b[:0], 0
			}
			b = utf8.AppendRune(b, r)
			fn(b)
			b = b[:0]
		}
	}
	if runes > 0 {
		fn(b)
	}
	*bp = b[:0]
	pieceBufPool.Put(bp)
}

// Count returns the number of tokens in text without materializing them.
// Count(s) == len(Tokenize(s)) holds by construction: both count the
// pieces emitted by the same Each scan.
func (t Tokenizer) Count(text string) int {
	n := 0
	t.Each(text, func([]byte) { n++ })
	return n
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

// Package embed produces deterministic vector embeddings for text, tabular
// and image-descriptor data.
//
// The embedder is a hashed bag-of-n-grams model: every word token and every
// character trigram of the input is hashed into a fixed-dimensional vector
// with a signed FNV hash, and the result is L2-normalized. This is the
// classic "hashing trick" feature map; it is deterministic, allocation-light
// and — crucially for this reproduction — semantically meaningful enough that
// similar queries land near each other, which is what the paper's prompt
// store (III-A), semantic cache (III-C) and multi-modal data lake (II-D)
// all rely on.
//
// The hot path is allocation-free: features are hashed incrementally
// (FNV-1a folded byte by byte) straight off the tokenizer's streaming scan,
// so no "w:"+token strings, token slices or hash objects are materialized.
// TextScratch embeds into a per-Embedder pooled buffer for callers (the
// semantic-cache lookup path) that only need the vector transiently.
//
// The package also holds the distance kernels every vector scan runs on
// (kernels.go): Dot, SqL2 and Cosine over float32; DotInt8 over one pair of
// int8 codes; DotInt8Rows over a block of rows against one query code (the
// quantized scan); DotInt8HeadsPass, which scores rows of a heads plane —
// each row's first 32 code bytes, stored sixteen rows to a block by
// SetHead so that one multiply-add scores a 4-byte group of all sixteen —
// and applies vector's head test in the same pass, returning only the rows
// that pass (the floored cosine scan); and QuantizeInto, which makes the
// codes. On amd64 with AVX2 they run in assembly, DotInt8HeadsPass with
// AVX-512 VNNI where the CPU has it, and elsewhere in portable Go.
package embed

import (
	"math"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/token"
)

// DefaultDim is the embedding dimensionality used across the repository when
// callers do not request a specific size.
const DefaultDim = 128

// Vector is a dense embedding.
type Vector []float32

// Embedder maps data of several modalities into one shared vector space.
// Embedder is safe for concurrent use.
type Embedder struct {
	dim int
	tok token.Tokenizer
	// scratch pools dim-sized vectors for TextScratch/ReleaseScratch, the
	// zero-steady-state-alloc embedding path used by per-request lookups.
	scratch sync.Pool
}

// New returns an Embedder producing vectors of the given dimensionality.
// It panics if dim <= 0, since a zero-dimensional space is always a bug.
func New(dim int) *Embedder {
	if dim <= 0 {
		panic("embed: non-positive dimension")
	}
	e := &Embedder{dim: dim}
	e.scratch.New = func() any {
		v := make(Vector, dim)
		return &v
	}
	return e
}

// Dim reports the embedding dimensionality.
func (e *Embedder) Dim() int { return e.dim }

// FNV-1a, folded incrementally so feature keys are hashed without being
// materialized as strings. Matches hash/fnv's 64-bit variant bit for bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// fnvRune folds the UTF-8 encoding of r, as fnvBytes(h, []byte(string(r))).
func fnvRune(h uint64, r rune) uint64 {
	if uint32(r) < utf8.RuneSelf {
		return fnvByte(h, byte(r))
	}
	var buf [utf8.UTFMax]byte
	n := utf8.EncodeRune(buf[:], r)
	for i := 0; i < n; i++ {
		h = fnvByte(h, buf[i])
	}
	return h
}

// fnvLower folds the lowercased runes of s, matching
// fnvBytes(h, []byte(strings.ToLower(s))) for the 1:1 case mappings
// unicode defines.
func fnvLower(h uint64, s string) uint64 {
	for _, r := range s {
		if 'A' <= r && r <= 'Z' {
			h = fnvByte(h, byte(r+'a'-'A'))
			continue
		}
		if r < utf8.RuneSelf {
			h = fnvByte(h, byte(r))
			continue
		}
		h = fnvRune(h, unicode.ToLower(r))
	}
	return h
}

// prefix hash states, precomputed once: fnv("w:"), fnv("g:"), ...
var (
	hashW = fnvByte(fnvByte(fnvOffset64, 'w'), ':')
	hashG = fnvByte(fnvByte(fnvOffset64, 'g'), ':')
	hashC = fnvByte(fnvByte(fnvOffset64, 'c'), ':')
	hashV = fnvByte(fnvByte(fnvOffset64, 'v'), ':')
	hashF = fnvByte(fnvByte(fnvOffset64, 'f'), ':')
)

// addHash folds a finished feature hash into v at a hashed position with a
// hashed sign — the tail of the classic hashing trick.
func addHash(v Vector, sum uint64, w float32) {
	idx := int(sum % uint64(len(v)))
	if (sum>>63)&1 == 1 {
		w = -w
	}
	v[idx] += w
}

// Text embeds a natural-language string.
func (e *Embedder) Text(s string) Vector {
	v := make(Vector, e.dim)
	e.textInto(v, s)
	normalize(v)
	return v
}

// TextScratch embeds s into a vector drawn from the Embedder's scratch
// pool. The caller must hand the same pointer back via ReleaseScratch once
// done (and must not retain the vector after that); lookups that embed,
// search and discard run with zero steady-state allocations. The pointer —
// rather than the Vector itself — round-trips through the pool so the
// slice header is never re-boxed.
func (e *Embedder) TextScratch(s string) *Vector {
	vp := e.scratch.Get().(*Vector)
	v := *vp
	for i := range v {
		v[i] = 0
	}
	e.textInto(v, s)
	normalize(v)
	return vp
}

// ReleaseScratch returns a TextScratch vector to the pool. Pointers not
// minted by TextScratch (wrong length) are dropped, not pooled.
func (e *Embedder) ReleaseScratch(vp *Vector) {
	if vp == nil || len(*vp) != e.dim {
		return
	}
	e.scratch.Put(vp)
}

// textInto accumulates the un-normalized text features of s into v.
func (e *Embedder) textInto(v Vector, s string) {
	e.tok.Each(s, func(piece []byte) {
		addHash(v, fnvBytes(hashW, piece), 1)
	})
	hashTrigrams(v, s, 0.5)
}

// Row embeds one table row given its column names and stringified values.
// The attribute names are folded in so that rows from tables with the same
// values but different schemas do not collapse to one point.
func (e *Embedder) Row(cols, vals []string) Vector {
	v := make(Vector, e.dim)
	for i, c := range cols {
		addHash(v, fnvLower(hashC, c), 0.75)
		if i < len(vals) {
			// Per-column value prefix "v:<col>=", folded once per column.
			hv := fnvByte(fnvLower(hashV, c), '=')
			e.tok.Each(vals[i], func(piece []byte) {
				addHash(v, fnvBytes(hv, piece), 1)
				addHash(v, fnvBytes(hashW, piece), 0.5)
			})
		}
	}
	normalize(v)
	return v
}

// Column embeds a table column given its name and a sample of values.
func (e *Embedder) Column(name string, sample []string) Vector {
	v := make(Vector, e.dim)
	addHash(v, fnvLower(hashC, name), 2)
	for _, s := range sample {
		e.tok.Each(s, func(piece []byte) {
			addHash(v, fnvBytes(hashW, piece), 1)
		})
	}
	normalize(v)
	return v
}

// Image embeds an image stand-in. Offline reproduction has no pixel data, so
// images are represented by caption text plus a compact feature descriptor
// (e.g. dominant colors, detected object tags); both contribute to the
// embedding so that caption-similar and feature-similar images are close.
func (e *Embedder) Image(caption string, features []float64) Vector {
	v := make(Vector, e.dim)
	e.tok.Each(caption, func(piece []byte) {
		addHash(v, fnvBytes(hashW, piece), 1)
	})
	var digits [20]byte
	for i, f := range features {
		addHash(v, fnvBytes(hashF, appendInt(digits[:0], i)), float32(f))
	}
	normalize(v)
	return v
}

// appendInt formats a non-negative int without strconv's allocation,
// matching strconv.Itoa's output.
func appendInt(dst []byte, n int) []byte {
	if n < 0 {
		dst = append(dst, '-')
		n = -n
	}
	if n >= 10 {
		dst = appendInt(dst, n/10)
	}
	return append(dst, byte('0'+n%10))
}

// hashTrigrams folds the character trigrams of s into v: lowercased, with
// whitespace runs collapsed to single spaces and the ends trimmed,
// streamed through a rolling 3-rune window instead of materializing the
// normalized string or the trigrams.
func hashTrigrams(v Vector, s string, w float32) {
	var r0, r1, r2 rune // rolling window, r2 newest
	n := 0              // runes seen (saturates at 3)
	started := false    // a non-space rune has been seen
	pending := false    // a space run is waiting to be collapsed
	for _, r := range s {
		if unicode.IsSpace(r) {
			pending = pending || started
			continue
		}
		if pending {
			pending = false
			r0, r1, r2 = r1, r2, ' '
			if n < 3 {
				n++
			}
			if n == 3 {
				addHash(v, fnvRune(fnvRune(fnvRune(hashG, r0), r1), r2), w)
			}
		}
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		} else if r >= utf8.RuneSelf {
			r = unicode.ToLower(r)
		}
		r0, r1, r2 = r1, r2, r
		if n < 3 {
			n++
		}
		if n == 3 {
			addHash(v, fnvRune(fnvRune(fnvRune(hashG, r0), r1), r2), w)
		}
		started = true
	}
}

// Cosine returns the cosine similarity of two vectors of equal length.
// Because Embedder output is L2-normalized, this equals the dot product for
// embedder-produced vectors, but Cosine stays correct for raw vectors too.
//
// Vectors of different lengths live in different embedding spaces; their
// similarity is defined as 0 (rather than panicking or silently scoring a
// truncated prefix, either of which hides the caller's bug).
func Cosine(a, b Vector) float64 {
	if len(a) != len(b) {
		return 0
	}
	dot, na, nb := dotNormF32(a, b)
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// commonPrefix clamps a and b to their shared length.
func commonPrefix(a, b Vector) (Vector, Vector) {
	if len(b) < len(a) {
		a = a[:len(b)]
	} else if len(a) < len(b) {
		b = b[:len(a)]
	}
	return a, b
}

// Dot returns the inner product of a and b over their common prefix
// (missing trailing dimensions contribute nothing).
func Dot(a, b Vector) float64 {
	a, b = commonPrefix(a, b)
	return dotF32(a, b)
}

// L2 returns the Euclidean distance between a and b over their common
// prefix (missing trailing dimensions contribute nothing).
func L2(a, b Vector) float64 {
	a, b = commonPrefix(a, b)
	return math.Sqrt(sqL2F32(a, b))
}

// SqL2 returns the squared Euclidean distance between a and b over their
// common prefix. It is the kernel behind L2, exported for scans (IVF
// assignment, PQ codebooks) that compare many distances and never need
// the square root.
func SqL2(a, b Vector) float64 {
	a, b = commonPrefix(a, b)
	return sqL2F32(a, b)
}

// Norm returns the L2 norm of v.
func Norm(v Vector) float64 {
	return math.Sqrt(dotF32(v, v))
}

// normalize scales v to unit L2 norm in place; the zero vector is unchanged.
func normalize(v Vector) {
	n := Norm(v)
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
}

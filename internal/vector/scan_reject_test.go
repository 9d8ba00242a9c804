package vector

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/embed"
)

// rowAtATimeSearch is what Flat's search must return, computed the plain
// way: score every admitted row, sort, cut. No blocks, no heap, no early
// reject, no head test — it shares only the scoring formulas
// (scoreApprox, scoreExact, bound and the query side armBound sets up) and
// the decision of when to prefilter with the scan it checks. Under a floor
// it drops exactly the rows whose bound is below it, and then the results
// below it.
func rowAtATimeSearch(f *Flat, q embed.Vector, k int, floor float64, keep func(map[string]string) bool) []Result {
	s := f.store
	if k <= 0 || s.n == 0 {
		return []Result{}
	}
	best := func(rs []Result, k int) []Result {
		slices.SortFunc(rs, byRank)
		return rs[:min(k, len(rs))]
	}
	p := prepare(f.metric, q, floor)
	quantized := s.quant && k < s.n && s.n > 4*shortlistFor(k)
	if quantized {
		s.quantize(&p, make([]int8, s.dim))
	}
	rows := []Result{} // in row space: the prefilter breaks its ties by row
	for i := 0; i < s.n; i++ {
		if keep != nil && !keep(f.rows[i].attrs) {
			continue
		}
		if quantized {
			dot := embed.DotInt8(p.qcode, s.code(i))
			if p.prune && s.bound(&p, i, dot) < floor {
				continue
			}
			rows = append(rows, Result{ID: ID(i), Score: s.scoreApprox(&p, i, dot)})
		} else {
			rows = append(rows, Result{ID: ID(i), Score: s.scoreExact(&p, i)})
		}
	}
	if quantized {
		rows = best(rows, shortlistFor(k))
		for j, r := range rows {
			rows[j].Score = s.scoreExact(&p, int(r.ID))
		}
	}
	for j, r := range rows {
		rows[j].ID = f.rows[r.ID].id
	}
	rows = best(rows, k)
	return slices.DeleteFunc(rows, func(r Result) bool { return r.Score < floor })
}

// scanCorpus returns n rows of the named shape and a query to search them
// with.
func scanCorpus(shape string, seed int64, n, dim int) ([]embed.Vector, embed.Vector) {
	r := rand.New(rand.NewSource(seed))
	randVec := func(scale float64) embed.Vector {
		v := make(embed.Vector, dim)
		for j := range v {
			v[j] = float32(r.NormFloat64() * scale)
		}
		return v
	}
	near := func(c embed.Vector, sign float32) embed.Vector { // c plus a tenth of its length in noise
		v := randVec(0.1 / math.Sqrt(float64(dim)) * embed.Norm(c))
		for j := range v {
			v[j] += sign * c[j]
		}
		return v
	}
	rows := make([]embed.Vector, n)
	q := randVec(1)
	switch shape {
	case "random":
		for i := range rows {
			rows[i] = randVec(1 + float64(i%5)) // norms vary, so Dot and L2 rank unlike Cosine
		}
	case "cluster": // pairwise cosine above 0.9: nearly every row is a near-tie
		for i := range rows {
			rows[i] = near(q, 1)
		}
		q = near(q, 1)
	case "negative": // every row points away from the query
		for i := range rows {
			rows[i] = near(q, -1)
		}
	case "zeroquery":
		for i := range rows {
			rows[i] = randVec(1)
		}
		q = make(embed.Vector, dim)
	case "zerorows": // every fourth row has no direction at all
		for i := range rows {
			if i%4 == 0 {
				rows[i] = make(embed.Vector, dim)
			} else {
				rows[i] = randVec(1)
			}
		}
	case "tailheavy", "headheavy": // all energy past the head, or all in it
		mask := func(v embed.Vector) embed.Vector {
			for j := range v {
				if (j < headDim) == (shape == "tailheavy") {
					v[j] = 0
				}
			}
			return v
		}
		for i := range rows {
			rows[i] = mask(randVec(1))
		}
		q = mask(q)
	case "scaled": // a third of the rows too small for a float32 norm, a third huge
		for i := range rows {
			rows[i] = randVec([]float64{1, 1e-20, 1e18}[i%3])
		}
	case "extreme": // every component ±1: every code is ±127
		sign := func() embed.Vector {
			v := make(embed.Vector, dim)
			for j := range v {
				v[j] = float32(2*r.Intn(2) - 1)
			}
			return v
		}
		for i := range rows {
			rows[i] = sign()
		}
		q = sign()
	default:
		panic("unknown corpus shape " + shape)
	}
	return rows, q
}

var (
	scanShapes  = []string{"random", "cluster", "negative", "zeroquery", "zerorows", "tailheavy", "headheavy", "scaled", "extreme"}
	scanMetrics = []Metric{Cosine, Dot, L2}
	// scanFloors are the floors the scan is checked at: none, then the
	// cache's stale floor and thresholds, then one only a near-copy passes.
	scanFloors = []float64{math.Inf(-1), 0, 0.55, 0.85, 0.97, 0.999}
)

// everyThird admits the rows tagged g=0 by quantFlat.
func everyThird(attrs map[string]string) bool { return attrs["g"] == "0" }

// quantFlat indexes rows, quantized from the first, under IDs that are not
// their row numbers and with every third tagged for everyThird.
func quantFlat(tb testing.TB, m Metric, rows []embed.Vector) *Flat {
	tb.Helper()
	f := NewFlat(len(rows[0]), m)
	f.store.enableQuant()
	for i, v := range rows {
		if err := f.Add(Item{ID: ID(3*i + 7), Vec: v, Attrs: map[string]string{"g": fmt.Sprint(i % 3)}}); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// sameBits fails unless got is want: same length, same IDs, same float64
// bit patterns, same order.
func sameBits(tb testing.TB, label string, got, want []Result) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d results, the row-at-a-time scan returns %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			tb.Fatalf("%s: rank %d is {%d %v}, the row-at-a-time scan has {%d %v}",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// checkScan compares the scan with the reference for one query at every
// floor: unfiltered through SearchAbove (and Search at −Inf), and filtered. Under Dot and L2 a floor only cuts the
// results, so two floors do there.
func checkScan(tb testing.TB, label string, f *Flat, q embed.Vector, k int) {
	tb.Helper()
	floors := scanFloors
	if f.metric != Cosine {
		floors = floors[:2]
	}
	for _, floor := range floors {
		l := fmt.Sprintf("%s floor=%v", label, floor)
		want := rowAtATimeSearch(f, q, k, floor, nil)
		if math.IsInf(floor, -1) {
			sameBits(tb, l+" Search", f.Search(q, k), want)
		}
		sameBits(tb, l+" SearchAbove", f.SearchAbove(q, k, floor), want)
		sameBits(tb, l+" filtered", f.search(q, k, floor, everyThird), rowAtATimeSearch(f, q, k, floor, everyThird))
	}
}

// removeRun deletes a fifth of f's items from all over the store, so the
// last rows move into the holes and the per-row columns must move with them.
func removeRun(f *Flat, n int) {
	for r := 0; r < n/5; r++ {
		f.Remove(ID(3*((r*7)%n) + 7))
	}
}

// The quantized scan decides most rows from one float32 multiply. That must
// change nothing: every result, ID and score bit for bit, is the plain
// row-at-a-time scan's — for every metric and k, on corpora chosen to sit
// on the reject's edges (near-ties, negative scores, a zero query, zero
// rows, energy all in the head or all past it, norms too small or too large
// for float32 to hold their squares, codes at ±127), at sizes
// around the prefilter's and the block's boundaries, at every floor, with
// and without a filter, before and after removals. The
// head test and the bound change nothing either: the reference drops
// exactly the rows whose bound is below the floor.
func TestQuantizedScanMatchesRowAtATime(t *testing.T) {
	const dim = 48 // one 32-byte kernel chunk — the head — and a tail
	sizes := []int{255, 256, 257, 5000}
	for _, k := range []int{1, 10, 64} {
		sizes = append(sizes, 4*shortlistFor(k)+1) // the smallest store k prefilters
	}
	for _, m := range scanMetrics {
		for _, shape := range scanShapes {
			for _, n := range sizes {
				rows, q := scanCorpus(shape, int64(n), n, dim)
				f := quantFlat(t, m, rows)
				for _, stage := range []string{"full", "after removes"} {
					for _, k := range []int{1, 10, 64} {
						label := fmt.Sprintf("%v %s n=%d %s k=%d", m, shape, n, stage, k)
						checkScan(t, label, f, q, k)
						checkScan(t, label+" query=row", f, rows[n/2], k)
					}
					removeRun(f, n)
				}
			}
		}
	}
}

// checkColumns fails unless every per-row column of s is what appendRow
// would compute for the row now in its place.
func checkColumns(tb testing.TB, label string, s *colStore) {
	tb.Helper()
	for i := 0; i < s.n; i++ {
		tw, ew := s.boundWeights(i)
		if s.cosw[i] != s.cosWeight(i) || !sameFloat32(s.tailw[i], tw) || !sameFloat32(s.qerrw[i], ew) ||
			(s.heads != nil && !slices.Equal(s.head(i), s.code(i)[:headDim])) {
			tb.Fatalf("%s: row %d's bound columns do not follow its code", label, i)
		}
	}
}

func sameFloat32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// checkBound fails unless, for query q at floor, every row's bound is at
// least its exact score and every row the head test drops has its bound
// below the floor. It returns how many rows each drops.
func checkBound(tb testing.TB, label string, s *colStore, q embed.Vector, floor float64) (dropped, headDropped int) {
	tb.Helper()
	p := prepare(Cosine, q, floor)
	s.quantize(&p, make([]int8, s.dim))
	if !p.prune {
		return 0, 0 // a zero query arms nothing
	}
	for i := 0; i < s.n; i++ {
		exact, b := s.scoreExact(&p, i), s.bound(&p, i, embed.DotInt8(p.qcode, s.code(i)))
		if !(b >= exact) {
			tb.Fatalf("%s row %d: bound %v below the exact score %v", label, i, b, exact)
		}
		if b < floor {
			dropped++
		}
		if p.head && p.hc.Below(embed.DotInt8(p.qcode[:headDim], s.head(i)), s.cosw[i], s.tailw[i], s.qerrw[i]) {
			headDropped++
			if !(b < floor) {
				tb.Fatalf("%s row %d floor %v: the head test drops a row whose bound %v is not below the floor", label, i, floor, b)
			}
		}
	}
	return dropped, headDropped
}

// The bound is an upper bound on the exact score, and the head test drops
// only rows the bound drops — for every row and query of every corpus shape,
// including a query equal to a row (score 1) at floors just below 1, at a
// dimension without a head (16), with one chunk of tail (48) and the
// embedder's (128), before and after removals.
func TestCosineBoundCoversExactScore(t *testing.T) {
	floors := append(slices.Clone(scanFloors[1:]), 1-1e-6, 1-1e-9, math.Nextafter(1, 0), 1)
	var dropped, headDropped int // the premise: both tests do drop rows here
	defer func() {
		if !t.Failed() && (dropped == 0 || headDropped == 0) {
			t.Errorf("the bound dropped %d rows and the head test %d: the corpora never exercise them", dropped, headDropped)
		}
	}()
	for _, dim := range []int{16, 48, 128} {
		for _, shape := range scanShapes {
			rows, q := scanCorpus(shape, int64(dim), 600, dim)
			f := quantFlat(t, Cosine, rows)
			s := f.store
			for _, stage := range []string{"full", "after removes"} {
				label := fmt.Sprintf("dim=%d %s %s", dim, shape, stage)
				checkColumns(t, label, s)
				for qi, qv := range []embed.Vector{q, rows[1], rows[len(rows)-2]} {
					for _, floor := range floors {
						d, hd := checkBound(t, fmt.Sprintf("%s query %d", label, qi), s, qv, floor)
						dropped, headDropped = dropped+d, headDropped+hd
					}
				}
				// A stored row queried at floors up to its own score finds itself.
				want := f.Search(rows[1], 1)
				for _, floor := range floors {
					if len(want) == 1 && want[0].Score >= floor {
						if got := f.SearchAbove(rows[1], 1, floor); !slices.Equal(got, want) {
							t.Fatalf("%s: at floor %v a row queried with itself finds %v, unfloored %v", label, floor, got, want)
						}
					}
				}
				removeRun(f, len(rows))
			}
		}
	}
}

// FuzzQuantizedScan holds the same equality on corpora the fuzzer shapes:
// it picks the metric, k, corpus shape, size, seed and dimension (16, below
// the head test, or 48, past it), and data overwrites the leading
// components of the store's first rows and of the query with bytes of its
// own (an int8 times a power of two from 2^-12 to 2^4). The floor is
// checked at every one of scanFloors and at the fuzzer's own, a float64
// from raw bits (a NaN is left out: it orders nothing), where a Cosine
// store's bound must also cover every exact score (checkBound).
func FuzzQuantizedScan(f *testing.F) {
	for mi := range scanMetrics {
		for si := range scanShapes {
			f.Add(uint8(mi), uint8(1), uint8(si), uint16(4*shortlistFor(1)+1), int64(si), uint8(si), math.Float64bits(0.9), []byte{})
			f.Add(uint8(mi), uint8(10), uint8(si), uint16(257), int64(mi), uint8(mi+1), math.Float64bits(0.3), []byte{0x7f, 0x80, 0, 1, 0xff, 0x40, 0xc0, 9})
		}
	}
	f.Add(uint8(0), uint8(64), uint8(1), uint16(1500), int64(64), uint8(1), math.Float64bits(0.99), []byte("a tight cluster, many near-ties"))
	f.Fuzz(func(t *testing.T, mi, k8, si uint8, n16 uint16, seed int64, d8 uint8, floorBits uint64, data []byte) {
		dim := 16
		if d8%2 == 1 {
			dim = 48
		}
		m := scanMetrics[int(mi)%len(scanMetrics)]
		k := int(k8)%70 + 1
		n := int(n16)%2000 + 1
		floor := math.Float64frombits(floorBits)
		if math.IsNaN(floor) {
			t.Skip("a NaN floor orders nothing")
		}
		rows, q := scanCorpus(scanShapes[int(si)%len(scanShapes)], seed, n, dim)
		for j, b := range data {
			v := float32(math.Ldexp(float64(int8(b)), int(b%17)-12))
			if j < dim {
				q[j] = v
			} else if row := (j - dim) / dim; row < n {
				rows[row][(j-dim)%dim] = v
			}
		}
		fl := quantFlat(t, m, rows)
		for _, stage := range []string{"full", "after removes"} {
			checkScan(t, stage, fl, q, k)
			sameBits(t, fmt.Sprintf("%s floor=%v", stage, floor), fl.SearchAbove(q, k, floor), rowAtATimeSearch(fl, q, k, floor, nil))
			if m == Cosine {
				checkBound(t, stage, fl.store, q, floor)
			}
			removeRun(fl, n)
		}
	})
}

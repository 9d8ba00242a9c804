package vector

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/embed"
)

// rowAtATimeSearch is what Flat.SearchFiltered must return, computed the
// plain way: score every admitted row, sort, cut. No blocks, no heap, no
// early reject, no shards — it shares only the two scoring formulas
// (scoreApprox, scoreExact) and the decision of when to prefilter with the
// scan it checks.
func rowAtATimeSearch(f *Flat, q embed.Vector, k int, keep func(map[string]string) bool) []Result {
	s := f.store
	if k <= 0 || s.n == 0 {
		return []Result{}
	}
	best := func(rs []Result, k int) []Result {
		slices.SortFunc(rs, byRank)
		return rs[:min(k, len(rs))]
	}
	p := prepare(f.metric, q)
	quantized := s.quant && k < s.n && s.n > 4*shortlistFor(k)
	if quantized {
		p.qcode = make([]int8, s.dim)
		p.qscale = embed.QuantizeInto(p.qcode, q)
	}
	rows := []Result{} // in row space: the prefilter breaks its ties by row
	for i := 0; i < s.n; i++ {
		if keep != nil && !keep(f.rows[i].attrs) {
			continue
		}
		if quantized {
			rows = append(rows, Result{ID: ID(i), Score: s.scoreApprox(&p, i, embed.DotInt8(p.qcode, s.code(i)))})
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
	return best(rows, k)
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
	default:
		panic("unknown corpus shape " + shape)
	}
	return rows, q
}

var (
	scanShapes  = []string{"random", "cluster", "negative", "zeroquery", "zerorows"}
	scanMetrics = []Metric{Cosine, Dot, L2}
)

// everyThird admits the rows tagged g=0 by quantFlat.
func everyThird(attrs map[string]string) bool { return attrs["g"] == "0" }

// quantFlat indexes rows, quantized from the first, under IDs that are not
// their row numbers and with every third tagged for everyThird.
func quantFlat(tb testing.TB, m Metric, rows []embed.Vector) *Flat {
	tb.Helper()
	f := NewFlat(len(rows[0]), m, Quantized(), ParallelMin(0))
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

// checkScan compares both entry points with the reference for one query.
func checkScan(tb testing.TB, label string, f *Flat, q embed.Vector, k int) {
	tb.Helper()
	sameBits(tb, label+" unfiltered", f.Search(q, k), rowAtATimeSearch(f, q, k, nil))
	sameBits(tb, label+" filtered", f.SearchFiltered(q, k, everyThird), rowAtATimeSearch(f, q, k, everyThird))
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
// rows), at sizes around the prefilter's and the block's boundaries, with
// and without a filter, before and after removals.
func TestQuantizedScanMatchesRowAtATime(t *testing.T) {
	const dim = 48 // one 32-byte kernel chunk and a tail
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

// FuzzQuantizedScan holds the same equality on corpora the fuzzer shapes:
// it picks the metric, k, corpus shape, size and seed, and data overwrites
// the leading components of the store's first rows and of the query with
// bytes of its own (an int8 times a power of two from 2^-12 to 2^4).
func FuzzQuantizedScan(f *testing.F) {
	for mi := range scanMetrics {
		for si := range scanShapes {
			f.Add(uint8(mi), uint8(1), uint8(si), uint16(4*shortlistFor(1)+1), int64(si), []byte{})
			f.Add(uint8(mi), uint8(10), uint8(si), uint16(257), int64(mi), []byte{0x7f, 0x80, 0, 1, 0xff, 0x40, 0xc0, 9})
		}
	}
	f.Add(uint8(0), uint8(64), uint8(1), uint16(1500), int64(64), []byte("a tight cluster, many near-ties"))
	f.Fuzz(func(t *testing.T, mi, k8, si uint8, n16 uint16, seed int64, data []byte) {
		const dim = 16
		m := scanMetrics[int(mi)%len(scanMetrics)]
		k := int(k8)%70 + 1
		n := int(n16)%2000 + 1
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
		checkScan(t, "full", fl, q, k)
		removeRun(fl, n)
		checkScan(t, "after removes", fl, q, k)
	})
}

package vector

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/embed"
)

func randItems(seed int64, n, dim int) []Item {
	r := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		v := make(embed.Vector, dim)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		items[i] = Item{ID: ID(i), Vec: v}
	}
	return items
}

func resultIDs(rs []Result) []ID {
	ids := make([]ID, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

// bruteTopK is the reference searches are checked against: m.Score over
// every item, the best k first, ties to the lower ID.
func bruteTopK(items []Item, m Metric, q embed.Vector, k int) []Result {
	rs := make([]Result, len(items))
	for i, it := range items {
		rs[i] = Result{ID: it.ID, Score: m.Score(q, it.Vec)}
	}
	slices.SortFunc(rs, byRank)
	return rs[:min(k, len(rs))]
}

// matchedIDs counts the results of got whose IDs are in want.
func matchedIDs(want, got []Result) int {
	in := map[ID]bool{}
	for _, r := range want {
		in[r.ID] = true
	}
	matched := 0
	for _, r := range got {
		if in[r.ID] {
			matched++
		}
	}
	return matched
}

// Remove satellite: removing the last element leaves a working empty index.
func TestFlatRemoveLastElement(t *testing.T) {
	f := NewFlat(4, Cosine)
	if err := f.Add(Item{ID: 1, Vec: embed.Vector{1, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if !f.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after removing last element", f.Len())
	}
	if got := f.Search(embed.Vector{1, 0, 0, 0}, 5); len(got) != 0 {
		t.Errorf("Search on emptied index returned %v", got)
	}
	if _, ok := f.Get(1); ok {
		t.Error("Get(1) succeeded after Remove")
	}
	// The index must accept new items after being emptied.
	if err := f.Add(Item{ID: 2, Vec: embed.Vector{0, 1, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if got := f.Search(embed.Vector{0, 1, 0, 0}, 1); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("Search after re-fill = %v, want ID 2", got)
	}
}

// Remove satellite: a removed ID can be re-added, with a different vector,
// and searches see the new vector only.
func TestFlatReAddRemovedID(t *testing.T) {
	f := NewFlat(4, Cosine)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.Add(Item{ID: 1, Vec: embed.Vector{1, 0, 0, 0}}))
	must(f.Add(Item{ID: 2, Vec: embed.Vector{0, 1, 0, 0}}))
	if !f.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	must(f.Add(Item{ID: 1, Vec: embed.Vector{0, 0, 1, 0}}))
	got := f.Search(embed.Vector{0, 0, 1, 0}, 1)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Search = %v, want re-added ID 1 on top", got)
	}
	it, ok := f.Get(1)
	if !ok || it.Vec[2] != 1 {
		t.Errorf("Get(1) = %+v, want the re-added vector", it)
	}
}

// Remove satellite: concurrent Search while Remove churns must stay
// race-free (run under -race) and every returned ID must be live or
// recently-live, never garbage.
func TestFlatConcurrentSearchDuringRemove(t *testing.T) {
	const n = 600
	f := NewFlat(48, Cosine)
	f.store.enableQuant() // exercise the prefilter path and the floor's head test too
	items := randItems(7, n, 48)
	if err := f.Add(items...); err != nil {
		t.Fatal(err)
	}
	q := items[0].Vec
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, r := range append(f.Search(q, 10), f.SearchAbove(q, 10, 0.2)...) {
					if r.ID < 0 || r.ID >= n {
						panic(fmt.Sprintf("impossible result ID %d", r.ID))
					}
				}
			}
		}()
	}
	for i := n - 1; i >= n/2; i-- {
		if !f.Remove(ID(i)) {
			t.Errorf("Remove(%d) = false", i)
		}
	}
	close(stop)
	wg.Wait()
	if f.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", f.Len(), n/2)
	}
	for _, r := range f.Search(q, 10) {
		if r.ID >= n/2 {
			t.Errorf("Search returned removed ID %d", r.ID)
		}
	}
}

// The quantized prefilter must agree with brute force on the final top-k
// for realistic embeddings (this checks the shortlist does not evict true
// winners), and every score it returns must be the exact scan's, bit for
// bit.
func TestFlatQuantizedMatchesExact(t *testing.T) {
	const n, dim, k = 2000, 64, 10
	quant := NewFlat(dim, Cosine)
	quant.store.enableQuant() // 2000 rows is below quantAutoMin
	items := randItems(11, n, dim)
	if err := quant.Add(items...); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 20; qi++ {
		q := items[qi*37%n].Vec
		er := bruteTopK(items, Cosine, q, k)
		qr := quant.Search(q, k)
		if matched := matchedIDs(er, qr); matched < k-1 { // allow one borderline swap at the tail
			t.Errorf("query %d: quantized top-%d matched only %d of exact %v vs %v",
				qi, k, matched, resultIDs(er), resultIDs(qr))
		}
		p := prepare(Cosine, q, math.Inf(-1))
		for _, r := range qr {
			if want := quant.store.scoreExact(&p, quant.byID[r.ID]); r.Score != want {
				t.Errorf("query %d: ID %d quantized score %v != exact %v", qi, r.ID, r.Score, want)
			}
		}
	}
}

// A store past quantAutoMin, quantized as every caller's store of that size
// is, against brute force.
func TestFlatQuantizedPipeline(t *testing.T) {
	const n, dim, k = 5000, 48, 10
	items := randItems(17, n, dim)
	fast := NewFlat(dim, Cosine)
	if err := fast.Add(items...); err != nil {
		t.Fatal(err)
	}
	if !fast.store.quant {
		t.Fatalf("a %d-row store is not quantized", n)
	}
	for qi := 0; qi < 10; qi++ {
		q := items[qi*211%n].Vec
		if matched := matchedIDs(bruteTopK(items, Cosine, q, k), fast.Search(q, k)); matched < k-1 {
			t.Errorf("query %d: quantized pipeline matched %d/%d of exact", qi, matched, k)
		}
	}
}

// A filtered search must honor the predicate on the column-store path too.
func TestFlatFilteredOnColumnStore(t *testing.T) {
	const n, dim = 1000, 16 // below quantAutoMin: the exact scan (checkScan filters the quantized one)
	f := NewFlat(dim, Cosine)
	items := randItems(19, n, dim)
	for i := range items {
		parity := "odd"
		if i%2 == 0 {
			parity = "even"
		}
		items[i].Attrs = map[string]string{"parity": parity}
	}
	if err := f.Add(items...); err != nil {
		t.Fatal(err)
	}
	got := f.search(items[0].Vec, 20, math.Inf(-1), func(attrs map[string]string) bool {
		return attrs["parity"] == "even"
	})
	if len(got) == 0 {
		t.Fatal("filtered search returned nothing")
	}
	for _, r := range got {
		if r.ID%2 != 0 {
			t.Errorf("filtered search returned odd ID %d", r.ID)
		}
	}
}

// IVF cells past quantAutoMin quantize on their own, and must still find
// the true top-k when every cell is probed.
func TestIVFQuantizedRecall(t *testing.T) {
	const n, dim, k = 5000, 32, 10
	items := randItems(29, n, dim)
	quant := NewIVF(IVFConfig{Dim: dim, Metric: Cosine, NList: 2, NProbe: 2, Seed: 1})
	if err := quant.Add(items...); err != nil {
		t.Fatal(err)
	}
	var matched, total int
	for qi := 0; qi < 20; qi++ {
		q := items[qi*59%n].Vec
		matched += matchedIDs(bruteTopK(items, Cosine, q, k), quant.Search(q, k))
		total += k
	}
	for i, c := range quant.cells {
		if !c.store.quant {
			t.Fatalf("cell %d of %d rows is not quantized", i, c.store.n)
		}
	}
	if recall := float64(matched) / float64(total); recall < 0.95 {
		t.Errorf("quantized IVF recall vs brute force = %.3f, want >= 0.95", recall)
	}
}

func TestColStoreSwapRemoveQuantized(t *testing.T) {
	s := newColStore(4, true)
	s.enableQuant()
	vecs := []embed.Vector{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}}
	for _, v := range vecs {
		s.appendRow(v)
	}
	s.swapRemove(0) // last row moves into slot 0
	if s.n != 2 {
		t.Fatalf("n = %d, want 2", s.n)
	}
	if s.row(0)[2] != 1 {
		t.Errorf("row 0 = %v, want the old last row", s.row(0))
	}
	if s.code(0)[2] != 127 {
		t.Errorf("code 0 = %v, codes not swapped with rows", s.code(0))
	}
	s.swapRemove(1)
	s.swapRemove(0)
	if s.n != 0 || len(s.vecs) != 0 || len(s.codes) != 0 {
		t.Errorf("store not empty after removing all rows: n=%d", s.n)
	}
}

// perRowQuantSearch is the row-at-a-time quantized search the blocked
// kernel replaced — one DotInt8 and one heap offer per row, no early
// reject — kept here as the oracle for the scan that runs.
func perRowQuantSearch(s *colStore, m Metric, q embed.Vector, k int, id func(int) ID) []Result {
	p := prepare(m, q, math.Inf(-1))
	p.qcode = make([]int8, s.dim)
	p.qscale = embed.QuantizeInto(p.qcode, q)
	short := newTopK(shortlistFor(k))
	for i := 0; i < s.n; i++ {
		short.offer(Result{ID: ID(i), Score: s.scoreApprox(&p, i, embed.DotInt8(p.qcode, s.code(i)))})
	}
	t := newTopK(k)
	for _, r := range short.h {
		t.offer(Result{ID: id(int(r.ID)), Score: s.scoreExact(&p, int(r.ID))})
	}
	return t.results()
}

// The blocked quantized scan must return the per-row scan's []Result —
// IDs, scores and order — for every metric and k,
// at a dimension the kernel covers whole and one it leaves a tail of,
// and still after swapRemove has shrunk and reshuffled the store.
func TestBlockedQuantScanMatchesPerRow(t *testing.T) {
	for _, dim := range []int{128, 40} {
		const n = 1500 // five full scan blocks and a partial one
		items := randItems(int64(31+dim), n, dim)
		s := newColStore(dim, true)
		s.enableQuant()
		ids := make([]ID, n)
		for i, it := range items {
			s.appendRow(it.Vec)
			ids[i] = it.ID + 1000 // ID space distinct from row space
		}
		id := func(i int) ID { return ids[i] }
		check := func(stage string) {
			t.Helper()
			for _, m := range []Metric{Cosine, Dot, L2} {
				for _, k := range []int{1, 10} {
					for qi := 0; qi < 6; qi++ {
						q := items[qi*131%n].Vec
						want := perRowQuantSearch(s, m, q, k, id)
						if got := s.search(m, q, k, math.Inf(-1), id, nil); !reflect.DeepEqual(got, want) {
							t.Fatalf("dim %d %s: metric %v k=%d query %d:\n got %v\nwant %v",
								dim, stage, m, k, qi, got, want)
						}
					}
				}
			}
		}
		check("full")
		for r := 0; r < 300; r++ { // shrink from the middle: rows move, blocks no longer align
			i := (r * 7) % s.n
			ids[i] = ids[s.n-1]
			s.swapRemove(i)
		}
		check("after swapRemove")
	}
}

// Equal scores must not make the result depend on arrival order: copies
// of one vector tie exactly, and the exact scan keeps the lowest IDs.
func TestScanTieBreakIsShapeIndependent(t *testing.T) {
	const n, dim, k = 1200, 32, 5
	base := randItems(37, 1, dim)[0].Vec
	f := NewFlat(dim, Cosine)
	for i := n - 1; i >= 0; i-- { // descending IDs: the best ties arrive last
		if err := f.Add(Item{ID: ID(i), Vec: base}); err != nil {
			t.Fatal(err)
		}
	}
	exact := f.Search(base, k)
	for i, r := range exact {
		if r.ID != ID(i) {
			t.Fatalf("tied exact scan returned IDs %v, want 0..%d", resultIDs(exact), k-1)
		}
	}
}

package vector

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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

func sameResults(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Errorf("%s: rank %d ID %d vs %d", label, i, a[i].ID, b[i].ID)
		}
	}
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
	f := NewFlat(16, Cosine, Quantized()) // exercise the prefilter path too
	items := randItems(7, n, 16)
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
				for _, r := range f.Search(q, 10) {
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

// The quantized prefilter must agree with the exact scan on the final
// top-k for realistic embeddings (scores are exact by construction; this
// checks the shortlist does not evict true winners).
func TestFlatQuantizedMatchesExact(t *testing.T) {
	const n, dim, k = 2000, 64, 10
	exact := NewFlat(dim, Cosine, Exact())
	quant := NewFlat(dim, Cosine, Quantized())
	items := randItems(11, n, dim)
	if err := exact.Add(items...); err != nil {
		t.Fatal(err)
	}
	if err := quant.Add(items...); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 20; qi++ {
		q := items[qi*37%n].Vec
		er := exact.Search(q, k)
		qr := quant.Search(q, k)
		matched := 0
		em := map[ID]bool{}
		for _, r := range er {
			em[r.ID] = true
		}
		for _, r := range qr {
			if em[r.ID] {
				matched++
			}
		}
		if matched < k-1 { // allow one borderline swap at the tail
			t.Errorf("query %d: quantized top-%d matched only %d of exact %v vs %v",
				qi, k, matched, resultIDs(er), resultIDs(qr))
		}
		// Scores the two indexes agree on an ID for must be exact-equal.
		qs := map[ID]float64{}
		for _, r := range qr {
			qs[r.ID] = r.Score
		}
		for _, r := range er {
			if s, ok := qs[r.ID]; ok && s != r.Score {
				t.Errorf("query %d: ID %d quantized score %v != exact %v", qi, r.ID, s, r.Score)
			}
		}
	}
}

// Parallel sharding must return exactly the serial results. Forces
// GOMAXPROCS up so the parallel path runs even on single-core CI.
func TestFlatParallelMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n, dim, k = 3000, 32, 12
	items := randItems(13, n, dim)
	for _, metric := range []Metric{Cosine, Dot, L2} {
		serial := NewFlat(dim, metric, Exact(), ParallelMin(0))
		parallel := NewFlat(dim, metric, Exact(), ParallelMin(1024))
		if err := serial.Add(items...); err != nil {
			t.Fatal(err)
		}
		if err := parallel.Add(items...); err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 10; qi++ {
			q := items[qi*101%n].Vec
			sameResults(t, fmt.Sprintf("metric %v query %d", metric, qi),
				serial.Search(q, k), parallel.Search(q, k))
		}
	}
}

// Quantized + parallel combined, against the plain exact serial scan.
func TestFlatQuantizedParallelPipeline(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n, dim, k = 5000, 48, 10
	items := randItems(17, n, dim)
	exact := NewFlat(dim, Cosine, Exact(), ParallelMin(0))
	fast := NewFlat(dim, Cosine, Quantized(), ParallelMin(1024))
	if err := exact.Add(items...); err != nil {
		t.Fatal(err)
	}
	if err := fast.Add(items...); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 10; qi++ {
		q := items[qi*211%n].Vec
		er, fr := exact.Search(q, k), fast.Search(q, k)
		em := map[ID]bool{}
		for _, r := range er {
			em[r.ID] = true
		}
		matched := 0
		for _, r := range fr {
			if em[r.ID] {
				matched++
			}
		}
		if matched < k-1 {
			t.Errorf("query %d: combined pipeline matched %d/%d of exact", qi, matched, k)
		}
	}
}

// SearchFiltered must honor the predicate on the column-store path too.
func TestFlatFilteredOnColumnStore(t *testing.T) {
	const n, dim = 1000, 16 // above quantAutoMin
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
	got := f.SearchFiltered(items[0].Vec, 20, func(attrs map[string]string) bool {
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

// IVF with Quantized cells must track the exact-cell configuration closely.
func TestIVFQuantizedRecall(t *testing.T) {
	const n, dim, k = 2000, 32, 10
	items := randItems(29, n, dim)
	exact := NewIVF(IVFConfig{Dim: dim, Metric: Cosine, NList: 8, NProbe: 8, Seed: 1})
	quant := NewIVF(IVFConfig{Dim: dim, Metric: Cosine, NList: 8, NProbe: 8, Seed: 1, Quantized: true})
	if err := exact.Add(items...); err != nil {
		t.Fatal(err)
	}
	if err := quant.Add(items...); err != nil {
		t.Fatal(err)
	}
	var matched, total int
	for qi := 0; qi < 20; qi++ {
		q := items[qi*59%n].Vec
		em := map[ID]bool{}
		for _, r := range exact.Search(q, k) {
			em[r.ID] = true
		}
		for _, r := range quant.Search(q, k) {
			if em[r.ID] {
				matched++
			}
		}
		total += k
	}
	if recall := float64(matched) / float64(total); recall < 0.95 {
		t.Errorf("quantized IVF recall vs exact IVF = %.3f, want >= 0.95", recall)
	}
}

func TestColStoreSwapRemoveQuantized(t *testing.T) {
	s := newColStore(4, quantOn)
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
// reject, no shards — kept here as the oracle for the scan that runs.
func perRowQuantSearch(s *colStore, m Metric, q embed.Vector, k int, id func(int) ID) []Result {
	p := prepare(m, q)
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
// IDs, scores and order — for every metric and k, serial and sharded,
// at a dimension the kernel covers whole and one it leaves a tail of,
// and still after swapRemove has shrunk and reshuffled the store.
func TestBlockedQuantScanMatchesPerRow(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	for _, dim := range []int{128, 40} {
		const n = 1500 // five full scan blocks and a partial one
		items := randItems(int64(31+dim), n, dim)
		s := newColStore(dim, quantOn)
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
						for _, parallelMin := range []int{0, 256} { // 1 shard, 4 shards
							got := s.search(m, q, k, id, nil, parallelMin)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("dim %d %s: metric %v k=%d query %d parallelMin %d:\n got %v\nwant %v",
									dim, stage, m, k, qi, parallelMin, got, want)
							}
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

// Equal scores must not make the result depend on scan shape: copies of
// one vector tie exactly, the exact scan keeps the lowest IDs, and the
// sharded scan returns what the serial one does in both modes (the
// quantized shortlist breaks its ties by row, so its answer is its own).
func TestScanTieBreakIsShapeIndependent(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n, dim, k = 1200, 32, 5
	base := randItems(37, 1, dim)[0].Vec
	search := func(opts ...FlatOption) []Result {
		f := NewFlat(dim, Cosine, opts...)
		for i := n - 1; i >= 0; i-- { // descending IDs: the best ties arrive last
			if err := f.Add(Item{ID: ID(i), Vec: base}); err != nil {
				t.Fatal(err)
			}
		}
		return f.Search(base, k)
	}
	exact := search(Exact(), ParallelMin(0))
	for i, r := range exact {
		if r.ID != ID(i) {
			t.Fatalf("tied exact scan returned IDs %v, want 0..%d", resultIDs(exact), k-1)
		}
	}
	if got := search(Exact(), ParallelMin(256)); !reflect.DeepEqual(got, exact) {
		t.Errorf("tied exact scan: sharded %v, serial %v", got, exact)
	}
	if got, want := search(Quantized(), ParallelMin(256)), search(Quantized(), ParallelMin(0)); !reflect.DeepEqual(got, want) {
		t.Errorf("tied quantized scan: sharded %v, serial %v", got, want)
	}
}

// A sharded scan of fewer rows than it has workers for must still cover
// every row exactly once.
func TestShardedScanOfTinyStore(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	for n := 1; n <= 9; n++ {
		items := randItems(41, n, 8)
		f := NewFlat(8, Dot, Exact(), ParallelMin(1))
		if err := f.Add(items...); err != nil {
			t.Fatal(err)
		}
		if got := f.Search(items[0].Vec, n+1); len(got) != n {
			t.Errorf("n=%d: sharded search returned %d results: %v", n, len(got), resultIDs(got))
		}
	}
}

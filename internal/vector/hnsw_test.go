package vector

import (
	"math/rand"
	"testing"
)

func TestHNSWRecallAgainstFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, dim, k = 500, 16, 10
	items := buildItems(rng, n, dim)

	flat := NewFlat(dim, L2)
	flat.Add(items...)
	h := NewHNSW(HNSWConfig{Dim: dim, Metric: L2, M: 12, EfSearch: 80, Seed: 1})
	h.Add(items...)

	hits, total := 0, 0
	for qi := 0; qi < 30; qi++ {
		q := randVec(rng, dim)
		truth := flat.Search(q, k)
		approx := h.Search(q, k)
		in := make(map[ID]bool, len(approx))
		for _, r := range approx {
			in[r.ID] = true
		}
		for _, r := range truth {
			total++
			if in[r.ID] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.85 {
		t.Errorf("HNSW recall@%d = %.2f, want >= 0.85", k, recall)
	}
}

func TestHNSWSelfQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	items := buildItems(rng, 100, 8)
	h := NewHNSW(HNSWConfig{Dim: 8, Metric: L2, Seed: 2})
	h.Add(items...)
	// Querying with a stored vector must return that item first.
	for i := 0; i < 20; i++ {
		it := items[rng.Intn(len(items))]
		res := h.Search(it.Vec, 1)
		if len(res) != 1 || res[0].ID != it.ID {
			t.Errorf("self query for %d returned %+v", it.ID, res)
		}
	}
}

func TestHNSWEmptyAndSmall(t *testing.T) {
	h := NewHNSW(HNSWConfig{Dim: 4, Metric: Cosine, Seed: 3})
	if res := h.Search(make([]float32, 4), 5); res != nil {
		t.Errorf("empty search = %v, want nil", res)
	}
	h.Add(Item{ID: 1, Vec: []float32{1, 0, 0, 0}})
	res := h.Search([]float32{1, 0, 0, 0}, 5)
	if len(res) != 1 || res[0].ID != 1 {
		t.Errorf("single-item search = %+v", res)
	}
}

func TestHNSWDuplicateID(t *testing.T) {
	h := NewHNSW(HNSWConfig{Dim: 2, Metric: L2, Seed: 4})
	h.Add(Item{ID: 5, Vec: []float32{0, 0}})
	if err := h.Add(Item{ID: 5, Vec: []float32{1, 1}}); err == nil {
		t.Error("duplicate add succeeded")
	}
}

func TestHNSWDeterministic(t *testing.T) {
	mk := func() *HNSW {
		rng := rand.New(rand.NewSource(23))
		h := NewHNSW(HNSWConfig{Dim: 8, Metric: Cosine, M: 6, Seed: 99})
		h.Add(buildItems(rng, 150, 8)...)
		return h
	}
	a, b := mk(), mk()
	q := randVec(rand.New(rand.NewSource(29)), 8)
	ra, rb := a.Search(q, 10), b.Search(q, 10)
	if len(ra) != len(rb) {
		t.Fatal("lengths differ")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Errorf("rank %d: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestHNSWDegreeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := 4
	h := NewHNSW(HNSWConfig{Dim: 8, Metric: L2, M: m, Seed: 7})
	h.Add(buildItems(rng, 300, 8)...)
	for i, n := range h.nodes {
		for l, nbs := range n.neighbors {
			max := m
			if l == 0 {
				max = 2 * m
			}
			if len(nbs) > max {
				t.Fatalf("node %d layer %d degree %d > %d", i, l, len(nbs), max)
			}
		}
	}
}

// A search allocates what it returns and the beam's sorted copy, nothing
// per visited node: the beam heaps push and pop candidates unboxed.
func TestHNSWSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers, so searches allocate more under -race")
	}
	rng := rand.New(rand.NewSource(43))
	h := NewHNSW(HNSWConfig{Dim: 32, Metric: Cosine, Seed: 5})
	h.Add(buildItems(rng, 2000, 32)...)
	q := randVec(rng, 32)
	if got := testing.AllocsPerRun(100, func() { h.Search(q, 10) }); got > 3 {
		t.Errorf("Search allocates %v times, want at most 3", got)
	}
}

func BenchmarkHNSWSearch1k(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	h := NewHNSW(HNSWConfig{Dim: 64, Metric: Cosine, M: 12, Seed: 1})
	h.Add(buildItems(rng, 1000, 64)...)
	q := randVec(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Search(q, 10)
	}
}

func BenchmarkHNSWInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	h := NewHNSW(HNSWConfig{Dim: 64, Metric: Cosine, M: 12, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(Item{ID: ID(i), Vec: randVec(rng, 64)})
	}
}

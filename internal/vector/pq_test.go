package vector

import (
	"math/rand"
	"testing"
)

func TestPQRecallAgainstFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const n, dim, k = 500, 32, 10
	items := buildItems(rng, n, dim)

	flat := NewFlat(dim, L2)
	flat.Add(items...)
	pq := NewPQ(PQConfig{Dim: dim, M: 8, K: 64, Seed: 1})
	pq.Add(items...)

	hits, total := 0, 0
	for qi := 0; qi < 30; qi++ {
		q := randVec(rng, dim)
		truth := flat.Search(q, k)
		approx := pq.Search(q, k)
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
	if recall < 0.5 {
		t.Errorf("PQ recall@%d = %.2f, want >= 0.5 (lossy but not useless)", k, recall)
	}
}

func TestPQSelfQueryNearTop(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	items := buildItems(rng, 200, 16)
	pq := NewPQ(PQConfig{Dim: 16, M: 4, K: 64, Seed: 2})
	pq.Add(items...)
	found := 0
	for i := 0; i < 20; i++ {
		it := items[rng.Intn(len(items))]
		res := pq.Search(it.Vec, 5)
		for _, r := range res {
			if r.ID == it.ID {
				found++
				break
			}
		}
	}
	if found < 15 {
		t.Errorf("self queries found in top-5 only %d/20 times", found)
	}
}

func TestPQCompression(t *testing.T) {
	pq := NewPQ(PQConfig{Dim: 128, M: 8, K: 32})
	if pq.BytesPerVector() != 8 {
		t.Errorf("bytes per vector = %d", pq.BytesPerVector())
	}
	if ratio := 128 * 4 / pq.BytesPerVector(); ratio != 64 {
		t.Errorf("compression = %vx, want 64x", ratio)
	}
}

func TestPQLateAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	pq := NewPQ(PQConfig{Dim: 8, M: 4, K: 16, Seed: 3})
	pq.Add(buildItems(rng, 100, 8)...)
	pq.Search(make([]float32, 8), 1) // the first search trains
	late := Item{ID: 999, Vec: randVec(rng, 8)}
	if err := pq.Add(late); err != nil {
		t.Fatal(err)
	}
	res := pq.Search(late.Vec, 3)
	found := false
	for _, r := range res {
		if r.ID == 999 {
			found = true
		}
	}
	if !found {
		t.Error("late add not retrievable")
	}
	if pq.Len() != 101 {
		t.Errorf("len = %d", pq.Len())
	}
}

func TestPQErrors(t *testing.T) {
	pq := NewPQ(PQConfig{Dim: 8, M: 4})
	if err := pq.Add(Item{ID: 1, Vec: make([]float32, 4)}); err == nil {
		t.Error("dim mismatch accepted")
	}
	pq.Add(Item{ID: 1, Vec: make([]float32, 8)})
	if err := pq.Add(Item{ID: 1, Vec: make([]float32, 8)}); err == nil {
		t.Error("duplicate accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad M did not panic")
		}
	}()
	NewPQ(PQConfig{Dim: 10, M: 3})
}

func TestPQEmpty(t *testing.T) {
	pq := NewPQ(PQConfig{Dim: 8, M: 4})
	if res := pq.Search(make([]float32, 8), 5); len(res) != 0 {
		t.Errorf("empty search = %v", res)
	}
}

func BenchmarkPQSearch1k(b *testing.B) {
	rng := rand.New(rand.NewSource(107))
	pq := NewPQ(PQConfig{Dim: 64, M: 8, K: 64, Seed: 1})
	pq.Add(buildItems(rng, 1000, 64)...)
	q := randVec(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pq.Search(q, 10)
	}
}

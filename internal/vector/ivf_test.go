package vector

import (
	"math/rand"
	"testing"
)

func TestIVFRecallAgainstFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, dim, k = 600, 16, 10
	items := buildItems(rng, n, dim)

	flat := NewFlat(dim, L2)
	flat.Add(items...)
	ivf := NewIVF(IVFConfig{Dim: dim, Metric: L2, NList: 12, NProbe: 6, Seed: 1})
	ivf.Add(items...)

	hits, total := 0, 0
	for qi := 0; qi < 30; qi++ {
		q := randVec(rng, dim)
		truth := flat.Search(q, k)
		approx := ivf.Search(q, k)
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
	if recall < 0.6 {
		t.Errorf("IVF recall@%d = %.2f, want >= 0.6", k, recall)
	}
}

func TestIVFFullProbeIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, dim, k = 200, 8, 5
	items := buildItems(rng, n, dim)
	flat := NewFlat(dim, Cosine)
	flat.Add(items...)
	ivf := NewIVF(IVFConfig{Dim: dim, Metric: Cosine, NList: 8, NProbe: 8, Seed: 2})
	ivf.Add(items...)
	for qi := 0; qi < 10; qi++ {
		q := randVec(rng, dim)
		truth := flat.Search(q, k)
		got := ivf.Search(q, k)
		if len(got) != len(truth) {
			t.Fatalf("len %d vs %d", len(got), len(truth))
		}
		for i := range truth {
			if got[i].ID != truth[i].ID && got[i].Score != truth[i].Score {
				t.Errorf("query %d rank %d: got %+v want %+v", qi, i, got[i], truth[i])
			}
		}
	}
}

func TestIVFLateAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ivf := NewIVF(IVFConfig{Dim: 4, Metric: L2, NList: 4, NProbe: 4, Seed: 3})
	ivf.Add(buildItems(rng, 50, 4)...)
	ivf.Search(randVec(rng, 4), 1) // trains
	// Additions after training go to existing cells and remain searchable.
	late := Item{ID: 999, Vec: randVec(rng, 4)}
	if err := ivf.Add(late); err != nil {
		t.Fatal(err)
	}
	res := ivf.Search(late.Vec, 1)
	if len(res) == 0 || res[0].ID != 999 {
		t.Errorf("late add not found: %+v", res)
	}
	if ivf.Len() != 51 {
		t.Errorf("Len = %d, want 51", ivf.Len())
	}
}

func TestIVFEmpty(t *testing.T) {
	ivf := NewIVF(IVFConfig{Dim: 4, Metric: L2})
	if res := ivf.Search(make([]float32, 4), 5); len(res) != 0 {
		t.Errorf("empty index returned %v", res)
	}
}

func TestIVFDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(5))
	rng2 := rand.New(rand.NewSource(5))
	a := NewIVF(IVFConfig{Dim: 8, Metric: Cosine, NList: 6, NProbe: 3, Seed: 10})
	b := NewIVF(IVFConfig{Dim: 8, Metric: Cosine, NList: 6, NProbe: 3, Seed: 10})
	a.Add(buildItems(rng1, 120, 8)...)
	b.Add(buildItems(rng2, 120, 8)...)
	q := randVec(rand.New(rand.NewSource(6)), 8)
	ra, rb := a.Search(q, 7), b.Search(q, 7)
	if len(ra) != len(rb) {
		t.Fatal("lengths differ")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Errorf("rank %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestKMeansCellCount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ivf := NewIVF(IVFConfig{Dim: 4, Metric: L2, NList: 10, Seed: 4})
	ivf.Add(buildItems(rng, 100, 4)...)
	ivf.Search(randVec(rng, 4), 1) // trains
	if n := len(ivf.centroids); n != 10 {
		t.Errorf("cells = %d, want 10", n)
	}
}

func BenchmarkIVFSearch1k(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	ivf := NewIVF(IVFConfig{Dim: 64, Metric: Cosine, NList: 32, NProbe: 4, Seed: 1})
	ivf.Add(buildItems(rng, 1000, 64)...)
	q := randVec(rng, 64)
	ivf.Search(q, 10) // trains
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ivf.Search(q, 10)
	}
}

package vector

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/embed"
)

func randVec(rng *rand.Rand, dim int) embed.Vector {
	v := make(embed.Vector, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func buildItems(rng *rand.Rand, n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: ID(i), Vec: randVec(rng, dim)}
	}
	return items
}

func TestFlatAddAndSearch(t *testing.T) {
	f := NewFlat(4, Cosine)
	if err := f.Add(
		Item{ID: 1, Vec: embed.Vector{1, 0, 0, 0}},
		Item{ID: 2, Vec: embed.Vector{0, 1, 0, 0}},
		Item{ID: 3, Vec: embed.Vector{0.9, 0.1, 0, 0}},
	); err != nil {
		t.Fatal(err)
	}
	res := f.Search(embed.Vector{1, 0, 0, 0}, 2)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].ID != 1 || res[1].ID != 3 {
		t.Errorf("order wrong: %+v", res)
	}
}

func TestFlatDuplicateID(t *testing.T) {
	f := NewFlat(2, Cosine)
	if err := f.Add(Item{ID: 7, Vec: embed.Vector{1, 0}}); err != nil {
		t.Fatal(err)
	}
	err := f.Add(Item{ID: 7, Vec: embed.Vector{0, 1}})
	if !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate add err = %v, want ErrDuplicateID", err)
	}
}

func TestFlatDimMismatch(t *testing.T) {
	f := NewFlat(3, L2)
	err := f.Add(Item{ID: 1, Vec: embed.Vector{1, 2}})
	if !errors.Is(err, ErrDimMismatch) {
		t.Errorf("err = %v, want ErrDimMismatch", err)
	}
}

func TestFlatRemove(t *testing.T) {
	f := NewFlat(2, L2)
	f.Add(Item{ID: 1, Vec: embed.Vector{0, 0}}, Item{ID: 2, Vec: embed.Vector{1, 1}})
	if !f.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if f.Remove(1) {
		t.Fatal("second Remove(1) = true")
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d, want 1", f.Len())
	}
	if _, ok := f.Get(2); !ok {
		t.Error("item 2 lost after remove")
	}
	res := f.Search(embed.Vector{0, 0}, 10)
	if len(res) != 1 || res[0].ID != 2 {
		t.Errorf("search after remove: %+v", res)
	}
}

func TestFlatKLargerThanStore(t *testing.T) {
	f := NewFlat(2, Cosine)
	f.Add(Item{ID: 1, Vec: embed.Vector{1, 0}})
	res := f.Search(embed.Vector{1, 0}, 100)
	if len(res) != 1 {
		t.Errorf("got %d results, want 1", len(res))
	}
}

func TestFlatZeroK(t *testing.T) {
	f := NewFlat(2, Cosine)
	f.Add(Item{ID: 1, Vec: embed.Vector{1, 0}})
	if res := f.Search(embed.Vector{1, 0}, 0); len(res) != 0 {
		t.Errorf("k=0 returned %v", res)
	}
}

func TestFlatSearchSortedDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewFlat(8, L2)
	f.Add(buildItems(rng, 200, 8)...)
	q := randVec(rng, 8)
	res := f.Search(q, 20)
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatalf("results not sorted at %d: %+v", i, res)
		}
	}
}

// Property: flat search over all metrics returns the true top-k (validated
// against an O(n log n) full sort).
func TestFlatExactTopK(t *testing.T) {
	for _, m := range []Metric{Cosine, Dot, L2} {
		rng := rand.New(rand.NewSource(42))
		f := NewFlat(6, m)
		items := buildItems(rng, 150, 6)
		f.Add(items...)
		q := randVec(rng, 6)
		res := f.Search(q, 10)

		best := make([]Result, len(items))
		for i, it := range items {
			best[i] = Result{ID: it.ID, Score: m.Score(q, it.Vec)}
		}
		for i := 0; i < 10; i++ {
			top := i
			for j := i + 1; j < len(best); j++ {
				if best[j].Score > best[top].Score {
					top = j
				}
			}
			best[i], best[top] = best[top], best[i]
			if res[i].ID != best[i].ID && res[i].Score != best[i].Score {
				t.Errorf("metric %v rank %d: got %+v want %+v", m, i, res[i], best[i])
			}
		}
	}
}

func TestMetricString(t *testing.T) {
	if Cosine.String() != "cosine" || Dot.String() != "dot" || L2.String() != "l2" {
		t.Error("metric names wrong")
	}
}

func TestTopKProperty(t *testing.T) {
	f := func(scores []float64, k8 uint8) bool {
		k := int(k8%10) + 1
		t := newTopK(k)
		for i, s := range scores {
			t.offer(Result{ID: ID(i), Score: s})
		}
		res := t.results()
		if len(res) > k {
			return false
		}
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkFlatSearch1k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	f := NewFlat(embed.DefaultDim, Cosine)
	f.Add(buildItems(rng, 1000, embed.DefaultDim)...)
	q := randVec(rng, embed.DefaultDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Search(q, 10)
	}
}

// Flat keeps each vector only in its column store, so Get hands out a
// copy: writing to it must not reach the index.
func TestFlatGetReturnsCopies(t *testing.T) {
	f := NewFlat(4, Cosine)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.Add(Item{ID: 1, Vec: embed.Vector{1, 0, 0, 0}, Attrs: map[string]string{"a": "x"}}))
	must(f.Add(Item{ID: 2, Vec: embed.Vector{0, 1, 0, 0}}))

	it, ok := f.Get(1)
	if !ok || it.ID != 1 || it.Attrs["a"] != "x" || it.Vec[0] != 1 {
		t.Fatalf("Get(1) = %+v, %v", it, ok)
	}
	it.Vec[0], it.Vec[1] = 0, 1
	if again, _ := f.Get(1); again.Vec[0] != 1 || again.Vec[1] != 0 {
		t.Fatalf("Get(1) = %+v after writing to the first Get's vector", again)
	}
	it.Vec = append(it.Vec, 9) // must not run into item 2's vector
	if got := f.Search(embed.Vector{0, 1, 0, 0}, 1); len(got) != 1 || got[0].ID != 2 || got[0].Score != 1 {
		t.Errorf("Search after writing to Get's vector = %v, want ID 2 at score 1", got)
	}
}

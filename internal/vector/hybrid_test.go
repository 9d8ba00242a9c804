package vector

import (
	"fmt"
	"math/rand"
	"testing"
)

func buildAttrStore(rng *rand.Rand, n, dim int) *Flat {
	f := NewFlat(dim, Cosine)
	for i := 0; i < n; i++ {
		modality := "text"
		switch i % 4 {
		case 1:
			modality = "table"
		case 2:
			modality = "image"
		}
		f.Add(Item{
			ID:  ID(i),
			Vec: randVec(rng, dim),
			Attrs: map[string]string{
				"modality": modality,
				"tenant":   fmt.Sprintf("t%d", i%10),
			},
		})
	}
	return f
}

func TestHybridOrdersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	store := buildAttrStore(rng, 400, 16)
	h := NewHybrid(store)
	pred := AttrEquals("modality", "image")
	q := randVec(rng, 16)

	af, _ := h.Search(q, 10, pred, AttributeFirst)
	vf, _ := h.Search(q, 10, pred, VectorFirst)
	ad, _ := h.Search(q, 10, pred, Adaptive)

	if len(af) == 0 {
		t.Fatal("attribute-first returned nothing")
	}
	// All strategies must return the same hit set for an exact base index.
	asSet := func(rs []Result) map[ID]bool {
		m := make(map[ID]bool)
		for _, r := range rs {
			m[r.ID] = true
		}
		return m
	}
	sa, sv, sd := asSet(af), asSet(vf), asSet(ad)
	for id := range sa {
		if !sv[id] || !sd[id] {
			t.Errorf("strategies disagree on id %d", id)
		}
	}
}

func TestHybridResultsSatisfyPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	store := buildAttrStore(rng, 200, 8)
	h := NewHybrid(store)
	pred := func(attrs map[string]string) bool { return attrs["modality"] == "table" && attrs["tenant"] == "t1" }
	q := randVec(rng, 8)
	for _, order := range []FilterOrder{AttributeFirst, VectorFirst, Adaptive} {
		res, _ := h.Search(q, 5, pred, order)
		for _, r := range res {
			it, _ := store.Get(r.ID)
			if !pred(it.Attrs) {
				t.Errorf("%v returned non-matching item %d attrs %v", order, r.ID, it.Attrs)
			}
		}
	}
}

func TestHybridNilPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	store := buildAttrStore(rng, 50, 8)
	h := NewHybrid(store)
	q := randVec(rng, 8)
	res, st := h.Search(q, 5, nil, Adaptive)
	if len(res) != 5 {
		t.Errorf("nil predicate returned %d hits, want 5", len(res))
	}
	if st.Survivors != 5 {
		t.Errorf("stats survivors = %d", st.Survivors)
	}
}

func TestAdaptivePicksAttributeFirstWhenSelective(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	store := buildAttrStore(rng, 500, 8)
	h := NewHybrid(store)
	// tenant t3 AND image modality: ~2.5% selectivity -> attribute-first.
	pred := func(attrs map[string]string) bool { return attrs["tenant"] == "t3" && attrs["modality"] == "text" }
	q := randVec(rng, 8)
	_, st := h.Search(q, 3, pred, Adaptive)
	if st.Order != AttributeFirst {
		t.Errorf("adaptive picked %v for selective predicate (est %.3f)", st.Order, st.SelectivityEst)
	}
	// Permissive predicate (75% of items are not image) -> vector-first.
	perm := func(attrs map[string]string) bool { return attrs["modality"] != "image" }
	_, st = h.Search(q, 3, perm, Adaptive)
	if st.Order != VectorFirst {
		t.Errorf("adaptive picked %v for permissive predicate (est %.3f)", st.Order, st.SelectivityEst)
	}
}

func TestInflationAdapts(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	store := buildAttrStore(rng, 400, 8)
	h := NewHybrid(store)
	before := h.inflate
	// Selective predicate in vector-first mode forces widening; the learned
	// inflation factor should grow.
	pred := AttrEquals("tenant", "t7")
	for i := 0; i < 10; i++ {
		h.Search(randVec(rng, 8), 5, pred, VectorFirst)
	}
	after := h.inflate
	if after <= before {
		t.Errorf("inflation did not grow: before %.2f after %.2f", before, after)
	}
}

func TestFilterOrderString(t *testing.T) {
	if AttributeFirst.String() != "attribute-first" || VectorFirst.String() != "vector-first" || Adaptive.String() != "adaptive" {
		t.Error("order names wrong")
	}
}

func BenchmarkHybridAttributeFirst(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	store := buildAttrStore(rng, 2000, 32)
	h := NewHybrid(store)
	pred := AttrEquals("modality", "image")
	q := randVec(rng, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Search(q, 10, pred, AttributeFirst)
	}
}

func BenchmarkHybridVectorFirst(b *testing.B) {
	rng := rand.New(rand.NewSource(71))
	store := buildAttrStore(rng, 2000, 32)
	h := NewHybrid(store)
	pred := AttrEquals("modality", "image")
	q := randVec(rng, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Search(q, 10, pred, VectorFirst)
	}
}

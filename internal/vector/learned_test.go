package vector

import (
	"math/rand"
	"testing"
)

func TestOrderLearnerRecoversSelectivityRule(t *testing.T) {
	l := NewOrderLearner()
	// Synthetic workload ground truth: attribute-first is cheaper when the
	// predicate is selective (scan counts reflect it).
	rng := rand.New(rand.NewSource(1))
	const n = 2000
	for i := 0; i < 400; i++ {
		sel := rng.Float64()
		attrScan := int(sel * n)              // attribute-first scans survivors
		vecScan := int(2 / (sel + 0.02) * 10) // vector-first inflates k as survivors thin
		if vecScan > n {
			vecScan = n
		}
		l.Observe(sel, n, 10, attrScan, vecScan)
	}
	l.Train(800, 2.0)

	if got := l.Choose(0.02, n, 10); got != AttributeFirst {
		t.Errorf("selective predicate chose %v", got)
	}
	if got := l.Choose(0.9, n, 10); got != VectorFirst {
		t.Errorf("permissive predicate chose %v", got)
	}
}

func TestOrderLearnerUntrainedDefault(t *testing.T) {
	l := NewOrderLearner()
	if got := l.Choose(0.01, 100, 5); got != VectorFirst {
		t.Errorf("untrained default = %v", got)
	}
	l.Train(100, 0.5) // no observations: must not panic
}

func TestSearchLearnedEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := buildAttrStore(rng, 800, 16)
	h := NewHybrid(store)
	l := NewOrderLearner()

	selective := func(attrs map[string]string) bool { return attrs["tenant"] == "t1" && attrs["modality"] == "text" }
	permissive := func(attrs map[string]string) bool { return attrs["modality"] != "image" }

	// Probe phase: measure both orders on a mixed workload.
	for i := 0; i < 30; i++ {
		pred := selective
		if i%2 == 0 {
			pred = permissive
		}
		h.SearchLearned(randVec(rng, 16), 10, pred, l, true)
	}
	if n := len(l.feats); n != 30 {
		t.Fatalf("observations = %d", n)
	}
	l.Train(800, 2.0)

	// Exploitation phase: the learner should route each predicate to its
	// cheaper order.
	_, stSel := h.SearchLearned(randVec(rng, 16), 10, selective, l, false)
	if stSel.Order != AttributeFirst {
		t.Errorf("selective predicate routed %v (est %.3f)", stSel.Order, stSel.SelectivityEst)
	}
	_, stPerm := h.SearchLearned(randVec(rng, 16), 10, permissive, l, false)
	if stPerm.Order != VectorFirst {
		t.Errorf("permissive predicate routed %v (est %.3f)", stPerm.Order, stPerm.SelectivityEst)
	}

	// Results under the learned route match the exact attribute-first scan.
	resL, _ := h.SearchLearned(randVec(rng, 16), 5, selective, l, false)
	for _, r := range resL {
		it, _ := store.Get(r.ID)
		if !selective(it.Attrs) {
			t.Errorf("learned route returned non-matching item %d", r.ID)
		}
	}
}

func TestSearchLearnedNilPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := buildAttrStore(rng, 100, 8)
	h := NewHybrid(store)
	l := NewOrderLearner()
	res, _ := h.SearchLearned(randVec(rng, 8), 5, nil, l, false)
	if len(res) != 5 {
		t.Errorf("nil predicate returned %d", len(res))
	}
}

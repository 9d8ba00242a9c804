package vector

import (
	"sync"

	"repro/internal/embed"
)

// FilterOrder selects how a hybrid (vector + attribute) query is executed —
// the Section III-B2 design space.
type FilterOrder int

const (
	// AttributeFirst scans items passing the attribute predicate and ranks
	// only those by vector similarity. Best when the predicate is selective.
	AttributeFirst FilterOrder = iota
	// VectorFirst runs the vector search with an inflated k and discards
	// hits failing the predicate. Best when the predicate is permissive.
	VectorFirst
	// Adaptive estimates predicate selectivity from a sample and picks
	// AttributeFirst when few candidates would survive, VectorFirst
	// otherwise. This is the paper's envisioned learned order selection.
	Adaptive
)

// String implements fmt.Stringer.
func (o FilterOrder) String() string {
	switch o {
	case AttributeFirst:
		return "attribute-first"
	case VectorFirst:
		return "vector-first"
	case Adaptive:
		return "adaptive"
	default:
		return "unknown"
	}
}

// Predicate filters items by attribute map.
type Predicate func(attrs map[string]string) bool

// AttrEquals returns a Predicate matching items whose attribute key equals
// value.
func AttrEquals(key, value string) Predicate {
	return func(attrs map[string]string) bool { return attrs[key] == value }
}

// And combines predicates conjunctively.
func And(ps ...Predicate) Predicate {
	return func(attrs map[string]string) bool {
		for _, p := range ps {
			if !p(attrs) {
				return false
			}
		}
		return true
	}
}

// HybridStats reports what a hybrid query did, for benchmarks and for the
// adaptive-k learner.
type HybridStats struct {
	Order          FilterOrder // order actually used
	Scanned        int         // vectors scored
	InflatedK      int         // k used for the vector phase (VectorFirst)
	Survivors      int         // hits passing the predicate
	SelectivityEst float64     // estimated fraction passing (Adaptive only)
}

// Hybrid executes attribute-filtered vector search over a Flat store with a
// configurable execution order and a learned k-inflation factor.
// Hybrid is safe for concurrent use.
type Hybrid struct {
	store *Flat

	mu sync.Mutex
	// inflate is the multiplier applied to k in VectorFirst mode. It is
	// adapted from observed survivor rates: if too few hits survive the
	// predicate, inflate grows; if nearly all survive, it decays. This is
	// the "predict an appropriate k" mechanism from Section III-B2.
	inflate float64
	// sampleSize bounds the selectivity estimation sample in Adaptive mode.
	sampleSize int
	// threshold is the selectivity below which Adaptive picks AttributeFirst.
	threshold float64
}

// NewHybrid wraps a Flat store for hybrid querying.
func NewHybrid(store *Flat) *Hybrid {
	return &Hybrid{store: store, inflate: 2, sampleSize: 64, threshold: 0.25}
}

// InflationFactor reports the current learned k multiplier.
func (h *Hybrid) InflationFactor() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inflate
}

// Search runs a hybrid query. order chooses the execution strategy; pred may
// be nil for a pure vector query.
func (h *Hybrid) Search(q embed.Vector, k int, pred Predicate, order FilterOrder) ([]Result, HybridStats) {
	if pred == nil {
		res := h.store.Search(q, k)
		return res, HybridStats{Order: order, Scanned: h.store.Len(), Survivors: len(res)}
	}
	switch order {
	case AttributeFirst:
		return h.attributeFirst(q, k, pred)
	case VectorFirst:
		return h.vectorFirst(q, k, pred)
	case Adaptive:
		sel := h.estimateSelectivity(pred)
		var res []Result
		var st HybridStats
		if sel < h.threshold {
			res, st = h.attributeFirst(q, k, pred)
		} else {
			res, st = h.vectorFirst(q, k, pred)
		}
		st.SelectivityEst = sel
		return res, st
	default:
		return h.attributeFirst(q, k, pred)
	}
}

func (h *Hybrid) attributeFirst(q embed.Vector, k int, pred Predicate) ([]Result, HybridStats) {
	t := newTopK(k)
	scanned := 0
	h.store.each(func(_ int, id ID, attrs map[string]string, vec embed.Vector) {
		if !pred(attrs) {
			return
		}
		scanned++
		t.offer(Result{ID: id, Score: h.store.metric.Score(q, vec)})
	})
	res := t.results()
	return res, HybridStats{Order: AttributeFirst, Scanned: scanned, Survivors: len(res)}
}

func (h *Hybrid) vectorFirst(q embed.Vector, k int, pred Predicate) ([]Result, HybridStats) {
	h.mu.Lock()
	inflate := h.inflate
	h.mu.Unlock()

	n := h.store.Len()
	kk := int(float64(k)*inflate) + 1
	if kk > n {
		kk = n
	}
	var out []Result
	for {
		hits := h.store.Search(q, kk)
		out = out[:0]
		for _, r := range hits {
			if attrs, _ := h.store.attrs(r.ID); pred(attrs) {
				out = append(out, r)
				if len(out) == k {
					break
				}
			}
		}
		if len(out) >= k || kk >= n {
			h.adapt(len(hits), len(out), k)
			return out, HybridStats{Order: VectorFirst, Scanned: kk, InflatedK: kk, Survivors: len(out)}
		}
		// Not enough survivors: widen and retry (paper: "k is often set as a
		// large number", here grown on demand and remembered via adapt).
		kk *= 2
		if kk > n {
			kk = n
		}
	}
}

// adapt updates the learned inflation factor from the observed survivor rate.
func (h *Hybrid) adapt(fetched, survived, want int) {
	if fetched == 0 {
		return
	}
	rate := float64(survived) / float64(fetched)
	var target float64
	if rate <= 0 {
		target = 16
	} else {
		target = 1/rate + 0.5
	}
	if target > 16 {
		target = 16
	}
	if target < 1 {
		target = 1
	}
	h.mu.Lock()
	h.inflate = 0.7*h.inflate + 0.3*target
	h.mu.Unlock()
	_ = want
}

// estimateSelectivity samples stored items and returns the fraction passing
// pred.
func (h *Hybrid) estimateSelectivity(pred Predicate) float64 {
	n := h.store.Len()
	if n == 0 {
		return 1
	}
	step := 1
	if n > h.sampleSize {
		step = n / h.sampleSize
	}
	seen, pass := 0, 0
	h.store.each(func(i int, _ ID, attrs map[string]string, _ embed.Vector) {
		if i%step != 0 {
			return
		}
		seen++
		if pred(attrs) {
			pass++
		}
	})
	if seen == 0 { // emptied between Len and each
		return 1
	}
	return float64(pass) / float64(seen)
}

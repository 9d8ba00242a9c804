package vector

import (
	"math"

	"repro/internal/embed"
)

// OrderLearner learns which hybrid execution order is cheaper from past
// query workloads — the paper's Section III-B2: "we can extract some
// significant features of the searched data and historical queries, and
// then train a classification model to predict which order to use for a
// new query."
//
// Features per query: estimated predicate selectivity, log store size, and
// the k/n ratio. The label is which order actually scanned fewer vectors.
// The model is a tiny logistic regression; Adaptive's fixed 0.25 threshold
// is exactly the kind of hand-tuned rule it replaces.
type OrderLearner struct {
	w [3]float64
	b float64

	feats  [][3]float64
	labels []bool // true = AttributeFirst was cheaper
}

// NewOrderLearner returns an untrained learner (predicts VectorFirst until
// trained, matching the permissive-predicate common case).
func NewOrderLearner() *OrderLearner { return &OrderLearner{} }

func features(selectivity float64, n, k int) [3]float64 {
	if n < 1 {
		n = 1
	}
	return [3]float64{selectivity, math.Log1p(float64(n)) / 14, float64(k) / float64(n)}
}

// Observe records one training example: the query's features plus the scan
// counts each order incurred.
func (l *OrderLearner) Observe(selectivity float64, n, k, attrFirstScanned, vectorFirstScanned int) {
	l.feats = append(l.feats, features(selectivity, n, k))
	l.labels = append(l.labels, attrFirstScanned <= vectorFirstScanned)
}

// Train fits the logistic regression by gradient descent.
func (l *OrderLearner) Train(epochs int, lr float64) {
	n := len(l.feats)
	if n == 0 {
		return
	}
	for e := 0; e < epochs; e++ {
		var gw [3]float64
		var gb float64
		for i, x := range l.feats {
			z := l.b
			for j := 0; j < 3; j++ {
				z += l.w[j] * x[j]
			}
			p := 1 / (1 + math.Exp(-z))
			y := 0.0
			if l.labels[i] {
				y = 1
			}
			d := p - y
			for j := 0; j < 3; j++ {
				gw[j] += d * x[j]
			}
			gb += d
		}
		for j := 0; j < 3; j++ {
			l.w[j] -= lr * gw[j] / float64(n)
		}
		l.b -= lr * gb / float64(n)
	}
}

// Choose predicts the cheaper order for a new query.
func (l *OrderLearner) Choose(selectivity float64, n, k int) FilterOrder {
	if len(l.feats) == 0 {
		return VectorFirst
	}
	x := features(selectivity, n, k)
	z := l.b
	for j := 0; j < 3; j++ {
		z += l.w[j] * x[j]
	}
	if 1/(1+math.Exp(-z)) >= 0.5 {
		return AttributeFirst
	}
	return VectorFirst
}

// SearchLearned runs a hybrid query with the order chosen by the learner,
// and feeds the observation back so the learner improves online. The first
// call for a query shape pays for measuring both orders occasionally
// (every probeEvery-th query) to keep collecting labels.
func (h *Hybrid) SearchLearned(q embed.Vector, k int, pred Predicate, l *OrderLearner, probe bool) ([]Result, HybridStats) {
	if pred == nil {
		return h.Search(q, k, nil, VectorFirst)
	}
	sel := h.estimateSelectivity(pred)
	n := h.store.Len()
	if probe {
		// Measure both orders and record the label.
		resA, stA := h.attributeFirst(q, k, pred)
		_, stV := h.vectorFirst(q, k, pred)
		l.Observe(sel, n, k, stA.Scanned, stV.Scanned)
		stA.SelectivityEst = sel
		return resA, stA
	}
	order := l.Choose(sel, n, k)
	res, st := h.Search(q, k, pred, order)
	st.SelectivityEst = sel
	return res, st
}

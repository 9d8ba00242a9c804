package exper

import (
	"context"
	"math"
	"testing"

	"repro/internal/core/cascade"
	"repro/internal/llm"
	"repro/internal/token"
	"repro/internal/workload"
)

// refLogistic is the trained decision model as a rule of its own: accept
// when the fitted probability of a correct answer reaches minP.
type refLogistic struct{ w, b, minP float64 }

func (l refLogistic) accept(conf float64) bool {
	return 1/(1+math.Exp(-(l.w*conf+l.b))) >= l.minP
}

// refFitLogistic is the gradient-descent fit that TrainLogistic runs,
// returning the regression's parameters instead of the threshold.
func refFitLogistic(confs []float64, correct []bool, epochs int, lr float64) (w, b float64) {
	n := float64(len(confs))
	for e := 0; e < epochs; e++ {
		var gw, gb float64
		for i, c := range confs {
			y := 0.0
			if correct[i] {
				y = 1
			}
			p := 1 / (1 + math.Exp(-(w*c + b)))
			gw += (p - y) * c
			gb += p - y
		}
		w -= lr * gw / n
		b -= lr * gb / n
	}
	return w, b
}

// refCostAware is the economic decision model as a rule of its own:
// accept unless the expected gain of escalating, (1 − conf) · value,
// exceeds the next tier's price.
type refCostAware struct{ value, next token.Cost }

func (c refCostAware) accept(conf float64) bool {
	return (1-conf)*float64(c.value) <= float64(c.next)
}

// TestDecisionRulesAreThresholds pins that Figure 6's trained and
// cost-aware decision models are the thresholds TrainLogistic and
// CostAware return: on every confidence any tier gives on Figure 6's
// items, its calibration slice and Table I's items, conf ≥ τ decides as
// the rule it stands for does, and a cascade run on τ accepts each
// non-final step exactly when that rule would.
func TestDecisionRulesAreThresholds(t *testing.T) {
	ctx := context.Background()
	fig6, calib := workload.GenQA(qaSeed+1, 200), workload.GenQA(qaSeed+2, 150)
	var confs, calibConfs []float64
	var calibCorrect []bool
	for i, set := range []*workload.QASet{fig6, calib, workload.GenQA(qaSeed, qaCount)} {
		for tier, m := range llm.DefaultFamily() {
			for _, it := range set.Items {
				resp, err := m.Complete(ctx, qaRequest(it))
				if err != nil {
					t.Fatal(err)
				}
				confs = append(confs, resp.Confidence)
				if i == 1 && tier == 0 { // what Fig6CascadeSweep calibrates on
					calibConfs = append(calibConfs, resp.Confidence)
					calibCorrect = append(calibCorrect, resp.Correct)
				}
			}
		}
	}
	if len(confs) != 3*(200+150+qaCount) {
		t.Fatalf("collected %d confidences, want %d", len(confs), 3*(200+150+qaCount))
	}

	trained, err := cascade.TrainLogistic(calibConfs, calibCorrect, 800, 0.8, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	w, b := refFitLogistic(calibConfs, calibCorrect, 800, 0.8)
	nextCost := llm.DefaultFamily()[1].Price().ForTokens(700, 10)
	rules := []struct {
		name   string
		accept func(float64) bool
		tau    cascade.Threshold
	}{
		{"trained logistic", refLogistic{w, b, 0.75}.accept, trained},
		{"cost-aware ($0.01/answer)", refCostAware{10000, nextCost}.accept, cascade.CostAware(10000, nextCost)},
		{"cost-aware ($1/answer)", refCostAware{1000000, nextCost}.accept, cascade.CostAware(1000000, nextCost)},
	}
	for _, r := range rules {
		for _, c := range confs {
			if got, want := c >= r.tau.Tau, r.accept(c); got != want {
				t.Errorf("%s: confidence %v against τ = %v accepts %t, the rule accepts %t", r.name, c, r.tau.Tau, got, want)
			}
		}
		casc := cascade.New(r.tau, llm.DefaultFamily().Models()...)
		for _, it := range fig6.Items {
			_, tr, err := casc.Complete(ctx, qaRequest(it))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range tr.Steps[:len(tr.Steps)-1] {
				if s.Accepted != r.accept(s.Confidence) {
					t.Errorf("%s: %s at confidence %v accepted %t, the rule accepts %t", r.name, s.Model, s.Confidence, s.Accepted, !s.Accepted)
				}
			}
		}
	}
}

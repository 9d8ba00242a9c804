package cascade

import (
	"context"
	"math"
	"testing"

	"repro/internal/llm"
	"repro/internal/token"
	"repro/internal/workload"
)

func family() llm.Family { return llm.DefaultFamily() }

func models(f llm.Family) []llm.Model {
	out := make([]llm.Model, len(f))
	for i, m := range f {
		out[i] = m
	}
	return out
}

func qaRequest(it workload.QAItem) llm.Request {
	return llm.Request{
		Task:       llm.TaskQA,
		Prompt:     "Context: " + it.ContextFor() + "\nQ: " + it.Question,
		Gold:       it.Answer,
		Wrong:      it.Distractor,
		Difficulty: it.Difficulty,
	}
}

func TestEmptyCascade(t *testing.T) {
	c := New(Threshold{0.5})
	if _, _, err := c.Complete(context.Background(), llm.Request{Prompt: "x"}); err != ErrNoModels {
		t.Errorf("err = %v, want ErrNoModels", err)
	}
}

func TestEasyQueryStopsEarly(t *testing.T) {
	f := family()
	c := New(Threshold{0.6}, models(f)...)
	resp, tr, err := c.Complete(context.Background(), llm.Request{
		Prompt: "label this obvious case", Gold: "yes", Difficulty: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 1 || tr.Steps[0].Model != llm.NameSmall {
		t.Errorf("easy query used %d steps: %+v", len(tr.Steps), tr.Steps)
	}
	if !resp.Correct {
		t.Error("easy query answered wrong")
	}
}

func TestHardQueryEscalates(t *testing.T) {
	f := family()
	c := New(Threshold{0.6}, models(f)...)
	_, tr, err := c.Complete(context.Background(), llm.Request{
		Prompt: "a very hard multi hop question", Gold: "g", Wrong: "w", Difficulty: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Escalations() == 0 {
		t.Errorf("hard query did not escalate: %+v", tr.Steps)
	}
	// Escalation pays for every attempt.
	var sum token.Cost
	for _, s := range tr.Steps {
		sum += s.Cost
	}
	if sum != tr.TotalCost {
		t.Errorf("trace cost %v != step sum %v", tr.TotalCost, sum)
	}
}

func TestFinalModelAlwaysAccepts(t *testing.T) {
	f := family()
	// Impossible threshold: everything escalates to the top model, which
	// must still answer.
	c := New(Threshold{1.1}, models(f)...)
	resp, tr, err := c.Complete(context.Background(), llm.Request{
		Prompt: "anything", Gold: "g", Wrong: "w", Difficulty: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 3 || !tr.Steps[2].Accepted {
		t.Errorf("trace = %+v", tr.Steps)
	}
	if resp.Model != llm.NameLarge {
		t.Errorf("final answer from %s", resp.Model)
	}
}

// The Table I reproduction shape: cascade accuracy ≈ top-model accuracy at a
// fraction of the cost.
func TestCascadeMatchesLargeModelCheaper(t *testing.T) {
	set := workload.GenQA(1, 200)
	f := family()
	c := New(Threshold{0.62}, models(f)...)

	var cascadeCorrect int
	var cascadeCost token.Cost
	for _, it := range set.Items {
		resp, tr, err := c.Complete(context.Background(), qaRequest(it))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Correct {
			cascadeCorrect++
		}
		cascadeCost += tr.TotalCost
	}

	large := f.Largest()
	var largeCorrect int
	var largeCost token.Cost
	for _, it := range set.Items {
		resp, err := large.Complete(context.Background(), qaRequest(it))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Correct {
			largeCorrect++
		}
		largeCost += resp.Cost
	}

	accC := float64(cascadeCorrect) / float64(len(set.Items))
	accL := float64(largeCorrect) / float64(len(set.Items))
	if accC < accL-0.07 {
		t.Errorf("cascade accuracy %.3f too far below gpt-4 %.3f", accC, accL)
	}
	if cascadeCost >= largeCost/2 {
		t.Errorf("cascade cost %v not well below gpt-4-only %v", cascadeCost, largeCost)
	}
}

func TestTrainLogisticSeparates(t *testing.T) {
	// Synthetic calibration: high confidence mostly correct.
	var confs []float64
	var correct []bool
	for i := 0; i < 200; i++ {
		c := float64(i) / 200
		confs = append(confs, c)
		correct = append(correct, c > 0.55)
	}
	d := TrainLogistic(confs, correct, 500, 0.5)
	if d.Accept(llm.Response{Confidence: 0.9}) != true {
		t.Error("trained model rejects high confidence")
	}
	if d.Accept(llm.Response{Confidence: 0.1}) != false {
		t.Error("trained model accepts low confidence")
	}
}

func TestTrainLogisticEmpty(t *testing.T) {
	d := TrainLogistic(nil, nil, 10, 0.1)
	// Degenerate model must still be usable.
	_ = d.Accept(llm.Response{Confidence: 0.5})
}

func TestLogisticCascadeEndToEnd(t *testing.T) {
	// Calibrate the decision model on one workload slice, evaluate on
	// another, and require the same "matches large model, cheaper" shape.
	f := family()
	calib := workload.GenQA(5, 150)
	small := f[0]
	var confs []float64
	var correct []bool
	for _, it := range calib.Items {
		r, _ := small.Complete(context.Background(), qaRequest(it))
		confs = append(confs, r.Confidence)
		correct = append(correct, r.Correct)
	}
	d := TrainLogistic(confs, correct, 800, 0.8)
	d.MinP = 0.75

	eval := workload.GenQA(6, 150)
	c := New(d, models(f)...)
	var ok int
	for _, it := range eval.Items {
		resp, _, err := c.Complete(context.Background(), qaRequest(it))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Correct {
			ok++
		}
	}
	if acc := float64(ok) / float64(len(eval.Items)); acc < 0.8 {
		t.Errorf("learned-decision cascade accuracy %.3f too low", acc)
	}
}

func BenchmarkCascade(b *testing.B) {
	set := workload.GenQA(2, 64)
	c := New(Threshold{0.62}, models(family())...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := set.Items[i%len(set.Items)]
		if _, _, err := c.Complete(context.Background(), qaRequest(it)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCostAwareDecision(t *testing.T) {
	// Cheap escalation + valuable answers: escalate on any real doubt.
	eager := CostAware{ValueOfCorrect: 1000000, NextCallCost: 100}
	if eager.Accept(llm.Response{Confidence: 0.9}) {
		t.Error("high-value task accepted a 10% wrong-risk answer over a cheap escalation")
	}
	// Expensive escalation + low-value answers: accept even shaky answers.
	frugal := CostAware{ValueOfCorrect: 100, NextCallCost: 100000}
	if !frugal.Accept(llm.Response{Confidence: 0.3}) {
		t.Error("low-value task escalated despite prohibitive cost")
	}
}

func TestCostAwareCascadeTradesAccuracyForValue(t *testing.T) {
	set := workload.GenQA(9, 150)
	run := func(value token.Cost) (acc float64, cost token.Cost) {
		f := family()
		// Approximate next-tier call price from the mid tier at ~700 tokens.
		c := New(CostAware{ValueOfCorrect: value, NextCallCost: f[1].Price().ForTokens(700, 10)}, models(f)...)
		correct := 0
		for _, it := range set.Items {
			resp, tr, err := c.Complete(context.Background(), qaRequest(it))
			if err != nil {
				t.Fatal(err)
			}
			if resp.Correct {
				correct++
			}
			cost += tr.TotalCost
		}
		return float64(correct) / float64(len(set.Items)), cost
	}
	accCheap, costCheap := run(800)     // answers worth ~$0.0008: rarely worth escalating
	accDear, costDear := run(100000000) // answers worth ~$100: escalate on any doubt
	if accDear <= accCheap {
		t.Errorf("valuing answers more did not raise accuracy: %.3f vs %.3f", accDear, accCheap)
	}
	if costDear <= costCheap {
		t.Errorf("valuing answers more did not raise spend: %v vs %v", costDear, costCheap)
	}
}

// confModel answers everything with a fixed confidence under its name.
type confModel struct {
	name string
	conf float64
}

func (m confModel) Name() string        { return m.name }
func (m confModel) Capability() float64 { return 0.5 }
func (m confModel) Price() token.Price  { return token.Price{} }
func (m confModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return llm.Response{Text: m.name + " says", Model: m.name, Confidence: m.conf, Cost: 3}, nil
}

// A confidence that is no number counts as 0 from where the tier's output
// enters the cascade: it clears no threshold (+Inf would have cleared
// every one), the last tier is accepted all the same, and chunks, trace
// and response all carry 0.
func TestNonFiniteConfidenceCountsAsZero(t *testing.T) {
	for name, conf := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		t.Run(name, func(t *testing.T) {
			c := New(Threshold{0.6}, confModel{"first", conf}, confModel{"last", conf})
			rs, err := c.CompleteStream(context.Background(), llm.Request{Prompt: "x"})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			for {
				ch, err := rs.Recv()
				if err != nil {
					break
				}
				if ch.Confidence != 0 {
					t.Errorf("chunk from %s carries confidence %v, want 0", ch.Model, ch.Confidence)
				}
			}
			resp, tr, err := rs.Result()
			if err != nil {
				t.Fatal(err)
			}
			if resp.Model != "last" || resp.Confidence != 0 {
				t.Errorf("accepted %+v, want the last tier's answer at confidence 0", resp)
			}
			if len(tr.Steps) != 2 || tr.Steps[0].Accepted || tr.Steps[0].Confidence != 0 || !tr.Steps[1].Accepted || tr.Steps[1].Confidence != 0 {
				t.Errorf("steps = %+v, want the first tier rejected and the last accepted, both at confidence 0", tr.Steps)
			}
		})
	}
}

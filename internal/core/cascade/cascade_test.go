package cascade

import (
	"context"
	"math"
	"testing"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/token"
	"repro/internal/workload"
)

func family() llm.Family { return llm.DefaultFamily() }

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
	c := New(Threshold{0.6}, f.Models()...)
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
	c := New(Threshold{0.6}, f.Models()...)
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
	c := New(Threshold{1.1}, f.Models()...)
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

// TestFullEscalationAllocatesNoSteps pins where a run's steps live: under
// an unkept trace, as the proxy runs most requests, a run through all
// three tiers allocates its RunStream and one single-call stream per
// tier, and its three steps ride the run's own array.
func TestFullEscalationAllocatesNoSteps(t *testing.T) {
	c := New(Threshold{1.1}, family().Models()...)
	req := llm.Request{Prompt: "anything", Gold: "g", Wrong: "w", Difficulty: 0.5}
	ctx, _ := obs.NewTracer(1).StartSampled(context.Background(), "proxy.complete", false)
	var tr Trace
	allocs := testing.AllocsPerRun(100, func() {
		_, tr, _ = c.Complete(ctx, req)
	})
	if len(tr.Steps) != 3 || tr.Steps[0].Model != llm.NameSmall || tr.Steps[2].Model != llm.NameLarge || !tr.Steps[2].Accepted {
		t.Fatalf("steps = %+v, want all three tiers, the last accepted", tr.Steps)
	}
	if want := float64(1 + len(c.Models)); allocs != want {
		t.Errorf("a three-tier run allocates %v times, want %v: the RunStream and one stream per tier", allocs, want)
	}
}

// The Table I reproduction shape: cascade accuracy ≈ top-model accuracy at a
// fraction of the cost.
func TestCascadeMatchesLargeModelCheaper(t *testing.T) {
	set := workload.GenQA(1, 200)
	f := family()
	c := New(Threshold{0.62}, f.Models()...)

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
	d, err := TrainLogistic(confs, correct, 500, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tau >= 0.9 || d.Tau <= 0.1 {
		t.Errorf("trained threshold %v does not separate confidence 0.9 from 0.1", d.Tau)
	}
}

// A fit over no pairs has W = 0 and implies no threshold.
func TestTrainLogisticEmpty(t *testing.T) {
	if d, err := TrainLogistic(nil, nil, 10, 0.1, 0.5); err == nil {
		t.Errorf("an empty fit returned %+v, want an error", d)
	}
}

// A fit that does not rise with confidence (W ≤ 0) implies no lower
// threshold: no right answer, or right answers only at low confidence.
func TestTrainLogisticNoThreshold(t *testing.T) {
	confs := []float64{0.2, 0.4, 0.6, 0.8}
	for name, correct := range map[string][]bool{
		"all wrong": {false, false, false, false},
		"falling":   {true, true, false, false},
	} {
		if d, err := TrainLogistic(confs, correct, 200, 0.5, 0.75); err == nil {
			t.Errorf("%s: fit returned %+v, want an error", name, d)
		}
	}
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
	d, err := TrainLogistic(confs, correct, 800, 0.8, 0.75)
	if err != nil {
		t.Fatal(err)
	}

	eval := workload.GenQA(6, 150)
	c := New(d, f.Models()...)
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
	c := New(Threshold{0.62}, family().Models()...)
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
	if eager := CostAware(1000000, 100); eager.Tau <= 0.9 {
		t.Errorf("high-value task accepts a 10%% wrong-risk answer over a cheap escalation (τ = %v)", eager.Tau)
	}
	// Expensive escalation + low-value answers: accept even shaky answers.
	if frugal := CostAware(100, 100000); frugal.Tau > 0.3 {
		t.Errorf("low-value task escalates despite prohibitive cost (τ = %v)", frugal.Tau)
	}
}

func TestCostAwareCascadeTradesAccuracyForValue(t *testing.T) {
	set := workload.GenQA(9, 150)
	run := func(value token.Cost) (acc float64, cost token.Cost) {
		f := family()
		// Approximate next-tier call price from the mid tier at ~700 tokens.
		c := New(CostAware(value, f[1].Price().ForTokens(700, 10)), f.Models()...)
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

func (m confModel) Name() string { return m.name }
func (m confModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return llm.Response{Text: m.name + " says", Model: m.name, Confidence: m.conf, Cost: 3}, nil
}

// A non-final tier's answer is accepted at exactly τ, and not below it.
func TestThresholdAcceptsAtTau(t *testing.T) {
	for _, tc := range []struct {
		conf, tau float64
		steps     int
	}{{0.62, 0.62, 1}, {math.Nextafter(0.62, 0), 0.62, 2}, {0, 0, 1}, {math.NaN(), 0, 1}} {
		c := New(Threshold{tc.tau}, confModel{"first", tc.conf}, confModel{"last", tc.conf})
		_, tr, err := c.Complete(context.Background(), llm.Request{Prompt: "x"})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Steps) != tc.steps {
			t.Errorf("confidence %v at τ = %v took %d steps, want %d", tc.conf, tc.tau, len(tr.Steps), tc.steps)
		}
	}
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

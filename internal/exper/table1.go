package exper

import (
	"context"
	"fmt"

	"repro/internal/core/cascade"
	"repro/internal/llm"
	"repro/internal/token"
	"repro/internal/workload"
)

// qaSeed and qaCount mirror the paper's 40-query HotpotQA sample.
const (
	qaSeed  = 3
	qaCount = 40
	// cascadeTau is the confidence threshold of Table I's cascade.
	cascadeTau = cascade.DefaultTau
)

// qaRequest builds the RAG-style prompt for one QA item.
func qaRequest(it workload.QAItem) llm.Request {
	return llm.Request{
		Task:       llm.TaskQA,
		Prompt:     "Context: " + it.ContextFor() + "\nQuestion: " + it.Question + "\nAnswer:",
		Gold:       it.Answer,
		Wrong:      it.Distractor,
		WrongAlts:  []string{"I am not certain."},
		Difficulty: it.Difficulty,
	}
}

// Table1Cascade reproduces Table I: accuracy and API cost of each single
// model versus the LLM cascade on the 40-query QA sample.
func Table1Cascade(ctx context.Context) (Report, error) {
	set := workload.GenQA(qaSeed, qaCount)

	rep := Report{
		ID:      "table1",
		Title:   "LLM cascade on multi-hop QA (paper Table I)",
		Headers: []string{"model", "accuracy", "api cost"},
		Notes: []string{
			fmt.Sprintf("%d QA queries (HotpotQA stand-in), seed %d", qaCount, qaSeed),
			"paper: babbage-002 27.5%, gpt-3.5-turbo ~, gpt-4 92.5%; cascade ≈ gpt-4 accuracy at far lower cost",
		},
	}

	// Single models.
	fam := llm.DefaultFamily()
	for _, m := range fam {
		correct := 0
		var cost token.Cost
		for _, it := range set.Items {
			resp, err := m.Complete(ctx, qaRequest(it))
			if err != nil {
				return rep, err
			}
			if resp.Correct {
				correct++
			}
			cost += resp.Cost
		}
		rep.Rows = append(rep.Rows, []string{m.Name(), pct(correct, qaCount), cost.String()})
	}

	correct, cost, err := table1Cascade(ctx, set.Items)
	if err != nil {
		return rep, err
	}
	rep.Rows = append(rep.Rows, []string{"LLM cascade", pct(correct, qaCount), cost.String()})
	return rep, nil
}

// table1Cascade runs Table I's cascade row over items on a fresh default
// family: how many it answers correctly, and what it spends.
func table1Cascade(ctx context.Context, items []workload.QAItem) (correct int, cost token.Cost, err error) {
	c := cascade.New(cascade.Threshold{Tau: cascadeTau}, llm.DefaultFamily().Models()...)
	for _, it := range items {
		resp, tr, err := c.Complete(ctx, qaRequest(it))
		if err != nil {
			return correct, cost, err
		}
		if resp.Correct {
			correct++
		}
		cost += tr.TotalCost
	}
	return correct, cost, nil
}

// Fig6CascadeSweep reproduces Figure 6's mechanism as a measurement: the
// accuracy/cost frontier traced by the cascade's decision threshold, with
// the trained logistic decision model as an extra point.
func Fig6CascadeSweep(ctx context.Context) (Report, error) {
	set := workload.GenQA(qaSeed+1, 200)

	rep := Report{
		ID:      "fig6",
		Title:   "cascade decision-threshold sweep (paper Figure 6 procedure)",
		Headers: []string{"decision", "accuracy", "api cost", "escalations/query"},
		Notes: []string{
			"200 QA queries; threshold 0 degenerates to the small model, 1 to always-escalate",
		},
	}

	run := func(name string, d cascade.Threshold) error {
		c := cascade.New(d, llm.DefaultFamily().Models()...)
		correct, escal := 0, 0
		var cost token.Cost
		for _, it := range set.Items {
			resp, tr, err := c.Complete(ctx, qaRequest(it))
			if err != nil {
				return err
			}
			if resp.Correct {
				correct++
			}
			escal += tr.Escalations()
			cost += tr.TotalCost
		}
		rep.Rows = append(rep.Rows, []string{
			name, pct(correct, len(set.Items)), cost.String(),
			fmt.Sprintf("%.2f", float64(escal)/float64(len(set.Items))),
		})
		return nil
	}

	for _, tau := range []float64{0.0, 0.4, 0.55, 0.62, 0.7, 0.85, 1.01} {
		if err := run(fmt.Sprintf("threshold %.2f", tau), cascade.Threshold{Tau: tau}); err != nil {
			return rep, err
		}
	}

	// Trained decision model, calibrated on a disjoint slice.
	calib := workload.GenQA(qaSeed+2, 150)
	small := llm.DefaultFamily()[0]
	var confs []float64
	var correct []bool
	for _, it := range calib.Items {
		resp, err := small.Complete(ctx, qaRequest(it))
		if err != nil {
			return rep, err
		}
		confs = append(confs, resp.Confidence)
		correct = append(correct, resp.Correct)
	}
	d, err := cascade.TrainLogistic(confs, correct, 800, 0.8, 0.75)
	if err != nil {
		return rep, err
	}
	if err := run("trained logistic", d); err != nil {
		return rep, err
	}

	// Economic decision model: escalate when the expected gain of a better
	// answer beats the next tier's price, at two answer valuations.
	nextCost := llm.DefaultFamily()[1].Price().ForTokens(700, 10)
	if err := run("cost-aware ($0.01/answer)", cascade.CostAware(10000, nextCost)); err != nil {
		return rep, err
	}
	if err := run("cost-aware ($1/answer)", cascade.CostAware(1000000, nextCost)); err != nil {
		return rep, err
	}
	return rep, nil
}

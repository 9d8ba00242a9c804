package exper

import (
	"context"
	"fmt"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/token"
	"repro/internal/workload"
)

// chaosSeed and chaosItems fix the chaos workload; the down row serves
// chaosItems more items of the same set, unseen by its cache.
const chaosSeed, chaosItems = 11, 30

// chaosRequest is the request chaos sends for one QA item.
func chaosRequest(it workload.QAItem) llm.Request {
	return llm.Request{
		Prompt: "Context: " + it.ContextFor() + "\nQ: " + it.Question,
		Gold:   it.Answer, Wrong: it.Distractor, Difficulty: it.Difficulty,
	}
}

// chaosCell is one (failure rate, stack) measurement.
type chaosCell struct {
	correct float64
	spend   token.Cost
	acctOK  bool
}

// ChaosResilience is the fault-injection experiment behind `make chaos`:
// it sweeps the per-attempt upstream failure rate (injected by llm.Flaky)
// and serves the same QA workload through two proxies — a bare stack
// (semantic cache + cascade only) and the full resilience stack (retry
// with jittered exponential backoff, per-tier circuit breakers) —
// measuring correct availability (the share of requests answered with
// gold) and spend. A reply counts only when it is right: an answer from
// the cache to another question is as unavailable as an error. The down
// row fills the cache from healthy tiers, then serves unseen items to
// tiers that fail every attempt, so that whatever the stack answers there
// comes from the cache. The accounting column cross-checks the proxy's
// spend counter against the simulated models' own usage meters, error
// paths included; a MISMATCH would mean a failed cascade run dropped its
// bill.
func ChaosResilience(ctx context.Context) (Report, error) {
	rep := Report{
		ID:      "chaos",
		Title:   "fault injection: correct availability and spend vs upstream failure rate",
		Headers: []string{"failure rate", "bare correct", "resilient correct", "resilient spend", "accounting"},
		Notes: []string{
			fmt.Sprintf("%d QA items x 4 rounds per cell; failures injected per attempt by llm.Flaky", chaosItems),
			"bare = semantic cache + cascade only; resilient adds retry with jittered backoff and per-tier circuit breakers",
			"correct = share of requests answered with gold; an error and another question's answer both count against it",
			fmt.Sprintf("down: %d items served healthy, then %d unseen items to tiers that fail every attempt; correct counts the unseen ones", chaosItems, chaosItems),
			"accounting: proxy spend vs the sum of the models' usage meters, error paths included",
		},
	}
	for _, rate := range []float64{0, 0.1, 0.3, 0.5, -1} {
		bare, err := runChaosCell(ctx, rate, false)
		if err != nil {
			return rep, err
		}
		res, err := runChaosCell(ctx, rate, true)
		if err != nil {
			return rep, err
		}
		acct := "ok"
		if !bare.acctOK || !res.acctOK {
			acct = "MISMATCH"
		}
		label := fmt.Sprintf("%.0f%%", rate*100)
		if rate < 0 {
			label = "down"
		}
		rep.Rows = append(rep.Rows, []string{
			label,
			f3(bare.correct),
			f3(res.correct),
			res.spend.String(),
			acct,
		})
	}
	return rep, nil
}

// runChaosCell serves the workload through one proxy configuration and
// reports correct availability plus the spend cross-check. Injected
// upstream failures count against it; a canceled ctx aborts the cell. A
// negative rate is the down cell: chaosItems healthy requests, then
// chaosItems unseen ones with every attempt failing, the latter measured.
func runChaosCell(ctx context.Context, rate float64, resilient bool) (chaosCell, error) {
	reg := obs.NewRegistry()
	small := llm.NewSim(llm.SimConfig{Name: "small", Capability: 0.55,
		Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg})
	large := llm.NewSim(llm.SimConfig{Name: "large", Capability: 0.97,
		Price: token.Price{InputPer1K: 30000, OutputPer1K: 60000}, Obs: reg})
	var flakies []*llm.Flaky
	wrap := func(m llm.Model) llm.Model {
		flaky := llm.NewFlaky(m, max(rate, 0))
		flakies = append(flakies, flaky)
		if !resilient {
			return flaky
		}
		return &llm.Retry{Inner: flaky, Attempts: 6,
			BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond, Obs: reg}
	}
	p := proxy.New(proxy.Config{
		Models:         []llm.Model{wrap(small), wrap(large)},
		Obs:            reg,
		Tracer:         obs.NewTracer(8),
		DisableBreaker: !resilient,
	})
	rounds, items := 4, workload.GenQA(chaosSeed, chaosItems).Items
	if rate < 0 {
		rounds, items = 1, workload.GenQA(chaosSeed, 2*chaosItems).Items
	}
	var total, correct int
	for round := 0; round < rounds; round++ {
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return chaosCell{}, err
			}
			if rate < 0 && i < chaosItems {
				if _, err := p.Complete(ctx, chaosRequest(it)); err != nil {
					return chaosCell{}, err
				}
				if i == chaosItems-1 {
					for _, f := range flakies {
						f.FailureRate = 1
					}
				}
				continue
			}
			ans, err := p.Complete(ctx, chaosRequest(it))
			total++
			if err == nil && ans.Text == it.Answer {
				correct++
			}
		}
	}
	st := p.Stats()
	meters := small.Meter().Spend + large.Meter().Spend
	return chaosCell{
		correct: float64(correct) / float64(total),
		spend:   st.Spend,
		acctOK:  st.Spend == meters,
	}, nil
}

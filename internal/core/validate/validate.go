// Package validate implements the paper's Section III-E: validating LLM
// outputs before data-management systems trust them. Three mechanisms are
// provided — self-consistency voting across prompt variants, interpretable
// evidence attribution (which input facts support the answer), and
// human-in-the-loop crowd scoring with learned worker reliabilities.
//
//llmdm:allow reach paper §III-E output validation: DESIGN documents the exported API as paper coverage
package validate

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/llm"
	"repro/internal/token"
)

// Vote is one self-consistency sample.
type Vote struct {
	Text       string
	Confidence float64
}

// ConsensusResult is the outcome of self-consistency validation.
type ConsensusResult struct {
	Answer string
	// Agreement is the fraction of samples voting for Answer.
	Agreement float64
	Votes     []Vote
	Cost      token.Cost
}

// SelfConsistency re-asks the model k times with lexically varied prompts
// (each variant draws an independent noise stream in the simulated model,
// exactly as temperature-sampled runs differ in a real one) and majority-
// votes the answers. The agreement score is the validation signal: data
// pipelines accept an answer only above an agreement threshold.
func SelfConsistency(ctx context.Context, m llm.Model, req llm.Request, k int) (ConsensusResult, error) {
	if k <= 0 {
		k = 3
	}
	var res ConsensusResult
	counts := map[string]int{}
	for i := 0; i < k; i++ {
		v := req
		// Prompt variants: semantically identical, lexically distinct.
		v.Prompt = fmt.Sprintf("%s\n(please answer carefully, attempt %d)", req.Prompt, i+1)
		resp, err := m.Complete(ctx, v)
		if err != nil {
			return res, err
		}
		res.Votes = append(res.Votes, Vote{Text: resp.Text, Confidence: resp.Confidence})
		res.Cost += resp.Cost
		counts[resp.Text]++
	}
	best, bestN := "", 0
	for text, n := range counts {
		if n > bestN || (n == bestN && text < best) {
			best, bestN = text, n
		}
	}
	res.Answer = best
	res.Agreement = float64(bestN) / float64(k)
	return res, nil
}

// --- Evidence attribution (interpretable LLMs) ---

// Attribution scores one input fact's support for an answer.
type Attribution struct {
	Fact  string
	Score float64
}

// AttributeEvidence ranks the context facts by how strongly they support
// the produced answer: facts containing the answer string score highest,
// then facts sharing question terms. This is the string-level analogue of
// attention/leave-one-out attribution and gives the human verifier the
// "database-specific explanation" the paper asks for: *which* input rows
// or documents the output rests on.
func AttributeEvidence(question, answer string, facts []string) []Attribution {
	qTokens := tokenSet(question)
	out := make([]Attribution, len(facts))
	for i, f := range facts {
		score := 0.0
		if answer != "" && strings.Contains(strings.ToLower(f), strings.ToLower(answer)) {
			score += 1.0
		}
		fTokens := tokenSet(f)
		overlap := 0
		for t := range qTokens {
			if fTokens[t] {
				overlap++
			}
		}
		if len(qTokens) > 0 {
			score += float64(overlap) / float64(len(qTokens))
		}
		out[i] = Attribution{Fact: f, Score: score}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// Supported reports whether the answer is grounded in at least one fact —
// the cheap hallucination check data pipelines should run before accepting
// extracted values.
func Supported(answer string, facts []string) bool {
	if answer == "" {
		return false
	}
	for _, f := range facts {
		if strings.Contains(strings.ToLower(f), strings.ToLower(answer)) {
			return true
		}
	}
	return false
}

func tokenSet(s string) map[string]bool {
	out := map[string]bool{}
	for _, t := range strings.Fields(strings.ToLower(s)) {
		t = strings.Trim(t, ".,?!;:'\"")
		if len(t) > 2 {
			out[t] = true
		}
	}
	return out
}

// --- Human-in-the-loop crowd scoring ---

// Worker is one simulated crowd participant: it judges an LLM output as
// acceptable or not, and is right with probability Accuracy. Judgments are
// deterministic per (worker, item) via the same hash-noise mechanism as the
// simulated models.
type Worker struct {
	ID       string
	Accuracy float64
	// reliability is the learned weight from gold-question calibration;
	// 1.0 until calibrated.
	reliability float64
}

// NewWorker returns a worker with unit reliability.
func NewWorker(id string, accuracy float64) *Worker {
	return &Worker{ID: id, Accuracy: accuracy, reliability: 1}
}

// Judge returns the worker's verdict on an item whose true quality is
// goodTruth.
func (w *Worker) Judge(itemKey string, goodTruth bool) bool {
	u := noise(w.ID, itemKey)
	if u < w.Accuracy {
		return goodTruth
	}
	return !goodTruth
}

// Crowd aggregates workers with reliability-weighted voting.
type Crowd struct {
	Workers []*Worker
	// Threshold is the weighted approval share required to accept.
	Threshold float64
}

// NewCrowd returns a crowd with a 0.5 threshold.
func NewCrowd(workers ...*Worker) *Crowd {
	return &Crowd{Workers: workers, Threshold: 0.5}
}

// Calibrate runs gold items (known-quality outputs) past every worker and
// sets reliabilities to the observed accuracy — the paper's "define a score
// function ... utilize crowdsourcing for scoring".
func (c *Crowd) Calibrate(goldItems []string, goldTruth []bool) {
	for _, w := range c.Workers {
		right := 0
		for i, item := range goldItems {
			if w.Judge("gold:"+item, goldTruth[i]) == goldTruth[i] {
				right++
			}
		}
		if len(goldItems) > 0 {
			w.reliability = float64(right) / float64(len(goldItems))
		}
	}
}

// Accept returns the crowd's weighted verdict on an item plus the approval
// share.
func (c *Crowd) Accept(itemKey string, goodTruth bool) (bool, float64) {
	var yes, total float64
	for _, w := range c.Workers {
		weight := w.reliability
		total += weight
		if w.Judge(itemKey, goodTruth) {
			yes += weight
		}
	}
	if total == 0 {
		return false, 0
	}
	share := yes / total
	return share >= c.Threshold, share
}

// AcceptSequential queries workers one at a time and stops as soon as the
// remaining voters cannot overturn the current weighted lead — the
// budget-aware form of crowd validation (crowdsourcing bills per
// judgment). It returns the verdict, the approval share among consulted
// workers, and how many workers were consulted.
func (c *Crowd) AcceptSequential(itemKey string, goodTruth bool) (verdict bool, share float64, consulted int) {
	var yes, total float64
	var remaining float64
	for _, w := range c.Workers {
		remaining += w.reliability
	}
	for _, w := range c.Workers {
		weight := w.reliability
		remaining -= weight
		total += weight
		if w.Judge(itemKey, goodTruth) {
			yes += weight
		}
		consulted++
		// Decided when even a unanimous remainder cannot move the verdict
		// across the threshold.
		grand := total + remaining
		if grand == 0 {
			break
		}
		bestCase := (yes + remaining) / grand
		worstCase := yes / grand
		if worstCase >= c.Threshold || bestCase < c.Threshold {
			break
		}
	}
	if total == 0 {
		return false, 0, consulted
	}
	share = yes / total
	return share >= c.Threshold, share, consulted
}

// noise maps (worker, item) to uniform [0,1), deterministic. The FNV pass
// is followed by a splitmix64 finalizer: FNV alone leaves the high bits of
// short, suffix-varying keys badly mixed.
func noise(worker, item string) float64 {
	h := uint64(1469598103934665603)
	for _, s := range []string{worker, "\x00", item} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// Package cascade implements the LLM cascade of the paper's Section III-B1
// and Figure 6: a query is sent to a sequence of models ordered from small
// and cheap to large and expensive, and a decision model determines after
// each attempt whether the answer is acceptable or a larger model is needed.
package cascade

import (
	"context"
	"errors"
	"math"
	"sync"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/token"
)

// Decision judges whether a model's response is acceptable or the cascade
// should escalate.
type Decision interface {
	// Accept reports whether resp is good enough to return.
	Accept(resp llm.Response) bool
}

// Threshold is the simplest decision model: accept when confidence reaches
// Tau.
type Threshold struct{ Tau float64 }

// Accept implements Decision.
func (t Threshold) Accept(resp llm.Response) bool { return resp.Confidence >= t.Tau }

// Logistic is a trained decision model: logistic regression over the
// response confidence, fit on labeled (confidence, correct) pairs collected
// from a calibration run. It realizes the paper's "a decision model can be
// trained to determine whether a more expensive and larger LLM is needed".
type Logistic struct {
	// w and b are the regression parameters over [confidence].
	W, B float64
	// MinP is the acceptance probability cutoff.
	MinP float64
}

// Accept implements Decision.
func (l Logistic) Accept(resp llm.Response) bool {
	p := 1 / (1 + math.Exp(-(l.W*resp.Confidence + l.B)))
	return p >= l.MinP
}

// TrainLogistic fits a one-feature logistic regression with gradient
// descent on (confidence, correct) pairs. It is deliberately tiny — the
// decision model needs to be far cheaper than the models it gates.
func TrainLogistic(confs []float64, correct []bool, epochs int, lr float64) Logistic {
	w, b := 0.0, 0.0
	n := len(confs)
	if n == 0 {
		return Logistic{MinP: 0.5}
	}
	for e := 0; e < epochs; e++ {
		var gw, gb float64
		for i := 0; i < n; i++ {
			y := 0.0
			if correct[i] {
				y = 1
			}
			p := 1 / (1 + math.Exp(-(w*confs[i] + b)))
			gw += (p - y) * confs[i]
			gb += (p - y)
		}
		w -= lr * gw / float64(n)
		b -= lr * gb / float64(n)
	}
	return Logistic{W: w, B: b, MinP: 0.5}
}

// CostAware is an economic decision model: it accepts the current answer
// unless the expected value of escalating exceeds the next model's price.
// Escalation is worth roughly (1 − confidence) · ValueOfCorrect — the
// probability the current answer is wrong times what a correct answer is
// worth — against NextCallCost, the price of trying the next tier. This is
// the decision rule a production cascade with per-query value annotations
// runs, generalizing a fixed confidence threshold.
type CostAware struct {
	// ValueOfCorrect is the worth of a correct answer, in micro-dollars.
	ValueOfCorrect token.Cost
	// NextCallCost estimates the next tier's call price, in micro-dollars.
	NextCallCost token.Cost
}

// Accept implements Decision.
func (c CostAware) Accept(resp llm.Response) bool {
	expectedGain := (1 - resp.Confidence) * float64(c.ValueOfCorrect)
	return expectedGain <= float64(c.NextCallCost)
}

// Step records one attempted model inside a cascade run.
type Step struct {
	Model      string
	Confidence float64
	Accepted   bool
	Cost       token.Cost
}

// Trace describes how one query moved through the cascade.
type Trace struct {
	Steps []Step
	// TotalCost sums the cost of every attempted model (escalation pays for
	// the failed attempts too, as with real APIs).
	TotalCost token.Cost
}

// Cascade is an ordered model chain with a decision model. It is built as
// a struct literal; Models and Obs are read on the first run, which
// resolves the metric handles, so set them before it and use the Cascade
// through a pointer.
type Cascade struct {
	Models []llm.Model
	Decide Decision
	// Breakers, when non-nil, holds one circuit breaker per model tier; a
	// run consults it before each tier and skips tripped ones, so a dying
	// model stops failing whole cascades after its breaker opens.
	Breakers *resilience.BreakerSet
	// Sched, when non-nil, receives each tier's call for models it
	// manages, so concurrent cascades share micro-batches instead of
	// calling tiers one request at a time. Tiers unknown to the
	// scheduler still go direct.
	Sched *sched.Scheduler
	// ExitThreshold arms mid-generation early exit on token-streamed
	// tiers (sched.Streaming requests): once a non-final tier has emitted
	// exitMinChunks (two) chunks, a chunk confidence below this threshold
	// aborts the tier and escalates immediately, billing only the chunks
	// already emitted. Zero disables early exit. Choose a value below the accept
	// threshold: collapse, not mere mediocrity, should trigger an abort.
	ExitThreshold float64
	// Obs receives the cascade's step/escalation/error counters.
	Obs *obs.Registry
	// Log receives tier-attempt/skip/escalation lifecycle events.
	Log *obs.Logger

	// Metric handles, resolved by the first run.
	resolve sync.Once
	tiers   []tierSeries // by tier index
	// noTier is cascade_errors_total{model="none"}: every breaker refused.
	noTier, forcedAccept, escalations, requests *obs.Counter
}

// tierSeries are one tier's handles, labelled with its model name.
type tierSeries struct {
	// cascade_steps_total{model,outcome}
	accept, reject, earlyExit *obs.Counter
	// cascade_early_exit_total, cascade_errors_total,
	// cascade_tier_skipped_total, cascade_final_model_total {model}
	earlyExits, errors, skipped, final *obs.Counter
}

// resolveSeries names every cascade_* series, once — there is no
// constructor to do it in — so that a run only does atomic adds.
func (c *Cascade) resolveSeries() {
	reg := c.Obs
	c.noTier = reg.Counter("cascade_errors_total", "model", "none")
	c.forcedAccept = reg.Counter("cascade_forced_accept_total")
	c.escalations = reg.Counter("cascade_escalations_total")
	c.requests = reg.Counter("cascade_requests_total")
	c.tiers = make([]tierSeries, len(c.Models))
	for i, m := range c.Models {
		name := m.Name()
		c.tiers[i] = tierSeries{
			accept:     reg.Counter("cascade_steps_total", "model", name, "outcome", "accept"),
			reject:     reg.Counter("cascade_steps_total", "model", name, "outcome", "reject"),
			earlyExit:  reg.Counter("cascade_steps_total", "model", name, "outcome", "early_exit"),
			earlyExits: reg.Counter("cascade_early_exit_total", "model", name),
			errors:     reg.Counter("cascade_errors_total", "model", name),
			skipped:    reg.Counter("cascade_tier_skipped_total", "model", name),
			final:      reg.Counter("cascade_final_model_total", "model", name),
		}
	}
}

// finalModel is cascade_final_model_total{model}, labelled with the name
// the accepted response carries. Every model in the tree answers under
// its own name and gets its tier's handle; only a test double that wraps
// another model's response falls through to the lookup by name.
func (c *Cascade) finalModel(tier int, model string) *obs.Counter {
	if c.Models[tier].Name() == model {
		return c.tiers[tier].final
	}
	return c.Obs.Counter("cascade_final_model_total", "model", model)
}

// step invokes one tier through the scheduler, and directly when the
// scheduler does not manage the model or has closed, so a closed
// scheduler degrades to direct calls rather than failing the request.
func (c *Cascade) step(ctx context.Context, m llm.Model, req llm.Request) (llm.Response, error) {
	if c.Sched != nil {
		resp, err := c.Sched.Submit(ctx, m.Name(), req)
		if !errors.Is(err, sched.ErrUnknownModel) && !errors.Is(err, sched.ErrClosed) {
			return resp, err
		}
	}
	return m.Complete(ctx, req)
}

// ErrNoModels is returned when a cascade has no models.
var ErrNoModels = errors.New("cascade: no models configured")

// ErrAllTiersOpen is returned when every tier's circuit breaker rejected
// the request — nothing was even attempted.
var ErrAllTiersOpen = errors.New("cascade: every tier's circuit breaker is open")

// New builds a cascade over models (cheapest first) with the given decision
// model.
func New(decide Decision, models ...llm.Model) *Cascade {
	return &Cascade{Models: models, Decide: decide}
}

// Complete runs the request through the cascade and returns the accepted
// response. It is a drain of the tier machine CompleteStream hands out, so
// both read modes share one loop: the final model's answer is always
// accepted (there is nothing larger to escalate to), tiers whose circuit
// breaker is open are skipped, and when a skipped escalation target leaves
// only a rejected answer, that answer is served best-effort rather than
// failing the request.
func (c *Cascade) Complete(ctx context.Context, req llm.Request) (llm.Response, Trace, error) {
	rs, err := c.CompleteStream(ctx, req)
	if err != nil {
		return llm.Response{}, Trace{}, err
	}
	defer rs.Close()
	for {
		if _, err := rs.Recv(); err != nil {
			// io.EOF or the terminal error — Result reports which.
			return rs.Result()
		}
	}
}

// Escalations reports how many models beyond the first were consulted.
func (t Trace) Escalations() int {
	if len(t.Steps) == 0 {
		return 0
	}
	return len(t.Steps) - 1
}

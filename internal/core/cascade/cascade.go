// Package cascade implements the LLM cascade of the paper's Section III-B1
// and Figure 6: a query is sent to a sequence of models ordered from small
// and cheap to large and expensive, and after each attempt a threshold on
// the answer's confidence decides whether it is acceptable or a larger
// model is needed.
package cascade

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/token"
)

// DefaultTau is the confidence a non-final tier's answer needs to be
// accepted when nothing else is configured: Table I's cascade and the
// serving proxy's default.
const DefaultTau = 0.62

// Threshold is the cascade's decision model: a non-final tier's answer is
// accepted when its confidence reaches Tau, and the last tier's always is.
// The trained and the cost-aware decision models of Figure 6 are each
// such a threshold (see TrainLogistic and CostAware).
type Threshold struct{ Tau float64 }

// TrainLogistic fits a one-feature logistic regression with gradient
// descent on (confidence, correct) pairs and returns the threshold it
// implies: the confidence at which the fitted probability of a correct
// answer reaches minP, τ = (logit(minP) − B)/W. It realizes the paper's "a
// decision model can be trained to determine whether a more expensive and
// larger LLM is needed", and is deliberately tiny — the decision model
// needs to be far cheaper than the models it gates. A fit that does not
// rise with confidence (W ≤ 0, which includes no pairs at all) implies no
// lower threshold, and is an error.
func TrainLogistic(confs []float64, correct []bool, epochs int, lr, minP float64) (Threshold, error) {
	w, b := 0.0, 0.0
	n := len(confs)
	for e := 0; e < epochs && n > 0; e++ {
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
	if w <= 0 {
		return Threshold{}, fmt.Errorf("cascade: the logistic fit over %d pairs has weight %g, not above 0, so no confidence threshold follows from it", n, w)
	}
	return Threshold{Tau: (math.Log(minP/(1-minP)) - b) / w}, nil
}

// CostAware is the economic decision model: accept the current answer
// unless escalating is worth more than it costs. Escalation is worth
// roughly (1 − confidence) · value — the probability the current answer
// is wrong times what a correct answer is worth — against nextCallCost,
// the price of trying the next tier, so the answer is accepted from
// confidence 1 − nextCallCost/value on. value must be above 0.
func CostAware(value, nextCallCost token.Cost) Threshold {
	return Threshold{Tau: 1 - float64(nextCallCost)/float64(value)}
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

// Cascade is an ordered model chain with a decision threshold. It is built
// as a struct literal; Models and Obs are read on the first run, which
// resolves the metric handles, so set them before it and use the Cascade
// through a pointer.
type Cascade struct {
	Models []llm.Model
	Decide Threshold
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
// threshold.
func New(decide Threshold, models ...llm.Model) *Cascade {
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

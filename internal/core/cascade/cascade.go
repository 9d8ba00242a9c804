// Package cascade implements the LLM cascade of the paper's Section III-B1
// and Figure 6: a query is sent to a sequence of models ordered from small
// and cheap to large and expensive, and a decision model determines after
// each attempt whether the answer is acceptable or a larger model is needed.
package cascade

import (
	"context"
	"errors"
	"math"

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

// Submitter routes a model call through a batching scheduler instead of
// invoking the model directly. *sched.Scheduler implements it.
type Submitter interface {
	// Has reports whether the scheduler manages the named model.
	Has(model string) bool
	// Submit enqueues the request for the named model and blocks until
	// its batch is served.
	Submit(ctx context.Context, model string, req llm.Request) (llm.Response, error)
}

// Cascade is an ordered model chain with a decision model.
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
	Sched Submitter
	// ExitThreshold arms mid-generation early exit on token-streamed
	// tiers (sched.Streaming requests): once a non-final tier has emitted
	// ExitMinChunks chunks, a chunk confidence below this threshold aborts
	// the tier and escalates immediately, billing only the chunks already
	// emitted. Zero disables early exit. Choose a value below the accept
	// threshold: collapse, not mere mediocrity, should trigger an abort.
	ExitThreshold float64
	// ExitMinChunks is the minimum chunks a tier streams before the exit
	// rule applies. Zero means DefaultExitMinChunks.
	ExitMinChunks int
	// Obs receives the cascade's step/escalation/error counters. Nil means
	// obs.Default.
	Obs *obs.Registry
	// Log receives tier-attempt/skip/escalation lifecycle events. Nil
	// means obs.DefaultLogger.
	Log *obs.Logger
}

// step invokes one tier, through the scheduler when it manages the
// model and directly otherwise. A scheduler that closed between the Has
// check and the submit degrades to a direct call rather than failing
// the request.
func (c *Cascade) step(ctx context.Context, m llm.Model, req llm.Request) (llm.Response, error) {
	if c.Sched != nil && c.Sched.Has(m.Name()) {
		resp, err := c.Sched.Submit(ctx, m.Name(), req)
		if !errors.Is(err, sched.ErrClosed) {
			return resp, err
		}
	}
	return m.Complete(ctx, req)
}

// reg returns the effective metrics registry.
func (c *Cascade) reg() *obs.Registry {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default
}

// logger returns the effective event logger.
func (c *Cascade) logger() *obs.Logger {
	if c.Log != nil {
		return c.Log
	}
	return obs.DefaultLogger
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

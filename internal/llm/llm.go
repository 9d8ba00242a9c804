// Package llm provides the simulated large-language-model family this
// reproduction substitutes for the GPT-family APIs used in the paper.
//
// # Substitution contract
//
// The paper's experiments (Tables I-III) measure *relative* accuracy and
// *relative* dollar cost across model tiers and across the optimizations
// built on top of them. This package reproduces exactly those observables:
//
//   - Each model has a capability in [0,1] and a per-token price schedule
//     mirroring the paper's quoted OpenAI prices.
//   - Each request carries a task difficulty in [0,1] and the correct
//     ("gold") output, produced by the real algorithmic engines in the
//     application packages (rule-based NL2SQL, pattern miners, extractors).
//   - A model answers correctly iff difficulty < capability + noise, where
//     the noise is a deterministic hash of (model, prompt) — so every run is
//     bit-for-bit reproducible while still behaving stochastically across
//     queries.
//   - The model reports a confidence correlated with (capability −
//     difficulty), which is exactly the signal an LLM-cascade decision model
//     consumes (paper Figure 6).
//
// Billing is real: prompts and outputs are tokenized by internal/token and
// priced per 1k tokens.
package llm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/token"
)

// Task labels what kind of work a request asks for. It is carried for
// metering and routing; the adjudication mechanics are task-independent.
type Task string

// Well-known tasks across the repository.
const (
	TaskQA        Task = "qa"
	TaskNL2SQL    Task = "nl2sql"
	TaskLabel     Task = "label"
	TaskExtract   Task = "extract"
	TaskPattern   Task = "pattern"
	TaskGenerate  Task = "generate"
	TaskTransform Task = "transform"
)

// Request is one LLM call.
type Request struct {
	Task   Task
	Prompt string
	// Gold is the correct completion, computed by the caller's task engine.
	Gold string
	// Wrong is the completion returned when the model errs. Empty means a
	// generic hedge answer.
	Wrong string
	// WrongAlts are additional plausible wrong completions. When set, an
	// erring model picks deterministically (per prompt) among Wrong and
	// WrongAlts — modelling how real sampled hallucinations disperse while
	// correct answers coincide, the property self-consistency voting
	// exploits (Section III-E).
	WrongAlts []string
	// Difficulty in [0,1]: how hard this query is. Zero means trivial
	// (generation-style calls that cannot be "wrong" bill tokens but always
	// return Gold).
	Difficulty float64
	// NoiseKey, when non-empty, keys the correctness noise instead of the
	// full prompt. Callers set it to the semantic core of the request (the
	// bare question) so that re-phrasings of the same ask — e.g. a prompt
	// whose few-shot examples were deduplicated by query combination —
	// succeed or fail together. Billing always uses the real prompt.
	NoiseKey string
}

// Response is the result of one LLM call.
type Response struct {
	Text string
	// Correct reports whether Text equals the gold output. Experiment
	// harnesses use it for grading; decision models must not (they only see
	// Confidence).
	Correct bool
	// Confidence in [0,1], correlated with correctness — the signal cascade
	// decision models threshold on.
	Confidence   float64
	Model        string
	InputTokens  int
	OutputTokens int
	Cost         token.Cost
	// Latency is the simulated wall-clock the call would have taken.
	Latency time.Duration
}

// Model is one simulated LLM.
type Model interface {
	// Name identifies the model (mirrors the paper's model names).
	Name() string
	// Complete runs one call. It never sleeps; latency is simulated in the
	// response. The context is honored for cancellation.
	Complete(ctx context.Context, req Request) (Response, error)
}

// ErrEmptyPrompt is returned for requests with no prompt text.
var ErrEmptyPrompt = errors.New("llm: empty prompt")

// SimModel is the standard simulated model implementation.
// SimModel is safe for concurrent use.
type SimModel struct {
	name       string
	capability float64
	price      token.Price
	// tokensPerSec drives the simulated latency.
	tokensPerSec float64
	// noiseAmp is the half-width of the capability noise band.
	noiseAmp float64

	mu    sync.Mutex
	meter token.Meter

	// Metric handles, resolved once at construction (per-model labels).
	mCalls, mErrors, mTokensIn, mTokensOut, mCost *obs.Counter
	mLatency, mCallCost                           *obs.Histogram
}

// SimConfig parameterizes a simulated model.
type SimConfig struct {
	Name       string
	Capability float64
	Price      token.Price
	// tokensPerSec drives the simulated latency. Only DefaultFamily sets
	// it; every other model runs at the default of 50.
	tokensPerSec float64
	//llmdm:allow reach the core packages' tests pin a noiseless model with it
	NoiseAmp float64
	// Obs receives the model's call/token/cost/latency/error metrics.
	Obs *obs.Registry
}

// NewSim returns a simulated model.
func NewSim(cfg SimConfig) *SimModel {
	if cfg.tokensPerSec <= 0 {
		cfg.tokensPerSec = 50
	}
	if cfg.NoiseAmp == 0 {
		cfg.NoiseAmp = 0.08
	}
	return &SimModel{
		name:         cfg.Name,
		capability:   cfg.Capability,
		price:        cfg.Price,
		tokensPerSec: cfg.tokensPerSec,
		noiseAmp:     cfg.NoiseAmp,
		mCalls:       cfg.Obs.Counter("llm_calls_total", "model", cfg.Name),
		mErrors:      cfg.Obs.Counter("llm_errors_total", "model", cfg.Name),
		mTokensIn:    cfg.Obs.Counter("llm_tokens_total", "model", cfg.Name, "direction", "input"),
		mTokensOut:   cfg.Obs.Counter("llm_tokens_total", "model", cfg.Name, "direction", "output"),
		mCost:        cfg.Obs.Counter("llm_cost_microusd_total", "model", cfg.Name),
		mLatency:     cfg.Obs.Histogram("llm_latency_seconds", obs.LatencyBuckets, "model", cfg.Name),
		mCallCost:    cfg.Obs.Histogram("llm_call_cost_microusd", obs.CostBuckets, "model", cfg.Name),
	}
}

// Name implements Model.
func (m *SimModel) Name() string { return m.name }

// Capability is the model's skill level in [0,1].
func (m *SimModel) Capability() float64 { return m.capability }

// Price is the model's token price schedule.
func (m *SimModel) Price() token.Price { return m.price }

// Meter returns a snapshot of the model's usage meter.
func (m *SimModel) Meter() token.Meter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.meter
}

// ResetMeter zeroes the usage meter.
func (m *SimModel) ResetMeter() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.meter.Reset()
}

// Complete implements Model.
func (m *SimModel) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		m.mErrors.Inc()
		return Response{}, err
	}
	if req.Prompt == "" {
		m.mErrors.Inc()
		return Response{}, ErrEmptyPrompt
	}
	_, sp := obs.StartSpan(ctx, "llm.complete")
	resp := m.answer(req, obs.SampledTraceID(ctx))
	if sp != nil { // nil under an unkept trace: box nothing
		sp.SetAttr("model", m.name)
		sp.SetAttr("tokens_in", resp.InputTokens)
		sp.SetAttr("tokens_out", resp.OutputTokens)
		sp.SetAttr("cost_microusd", int64(resp.Cost))
		sp.SetAttr("confidence", resp.Confidence)
		sp.End()
	}
	return resp, nil
}

// answer adjudicates, bills and meters one request — the per-item core
// shared by Complete and GenerateBatch. The request must be valid (non-
// empty prompt). trace, when non-empty, becomes the latency and cost
// histograms' exemplar for the buckets this call lands in.
func (m *SimModel) answer(req Request, trace string) Response {
	resp := m.adjudicate(req)

	m.mu.Lock()
	m.meter.Add(resp.InputTokens, resp.OutputTokens, resp.Cost)
	m.mu.Unlock()

	m.mCalls.Inc()
	m.mTokensIn.Add(int64(resp.InputTokens))
	m.mTokensOut.Add(int64(resp.OutputTokens))
	m.mCost.Add(int64(resp.Cost))
	m.mLatency.ObserveWithExemplar(resp.Latency.Seconds(), trace)
	m.mCallCost.ObserveWithExemplar(float64(resp.Cost), trace)
	return resp
}

// adjudicate decides one request — text, correctness, confidence, token
// counts, cost and simulated latency — with no side effects on the meter
// or metrics. It is the shared core of answer (which bills the whole call
// at once) and GenerateStream (which bills chunk by chunk as the text is
// emitted).
func (m *SimModel) adjudicate(req Request) Response {
	// Deterministic per-(model, key) noise streams: one for correctness,
	// one for confidence. Distinct salts keep them independent.
	key := req.NoiseKey
	if key == "" {
		key = req.Prompt
	}
	nCorrect := noiseUnit(m.name, key, "correct")
	nConf := noiseUnit(m.name, key, "conf")

	eff := m.capability + (nCorrect-0.5)*2*m.noiseAmp
	correct := req.Difficulty <= 0 || req.Difficulty < eff

	text := req.Gold
	if !correct {
		// The candidates are Wrong (when set) followed by WrongAlts; the
		// pick indexes that list without building it.
		lead := 0
		if req.Wrong != "" {
			lead = 1
		}
		if cands := lead + len(req.WrongAlts); cands == 0 {
			text = "I am not certain."
		} else {
			pick := int(noiseUnit(m.name, key, "wrongpick") * float64(cands))
			if pick >= cands {
				pick = cands - 1
			}
			if pick < lead {
				text = req.Wrong
			} else {
				text = req.WrongAlts[pick-lead]
			}
		}
	}

	conf := 0.5 + (m.capability-req.Difficulty)*0.9 + (nConf-0.5)*2*m.noiseAmp
	conf = clamp(conf, 0.02, 0.98)
	if req.Difficulty <= 0 {
		conf = 0.95
	}

	in := token.Count(req.Prompt)
	out := token.Count(text)
	if out == 0 {
		out = 1
	}
	cost := m.price.ForTokens(in, out)
	latency := time.Duration(float64(in+out) / m.tokensPerSec * float64(time.Second))

	return Response{
		Text:         text,
		Correct:      correct,
		Confidence:   conf,
		Model:        m.name,
		InputTokens:  in,
		OutputTokens: out,
		Cost:         cost,
		Latency:      latency,
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String implements fmt.Stringer.
func (m *SimModel) String() string {
	return fmt.Sprintf("%s(capability=%.2f)", m.name, m.capability)
}

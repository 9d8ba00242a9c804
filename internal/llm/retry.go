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

// ErrTransient marks a retryable upstream failure (rate limit, overload,
// connection reset — the failures real LLM APIs surface routinely).
var ErrTransient = errors.New("llm: transient upstream failure")

// Flaky wraps a model and injects deterministic transient failures: the
// call for (prompt, attempt) fails iff its hash-noise draw falls below
// FailureRate. Retrying the same prompt draws fresh noise per attempt, so
// persistence pays off — exactly the failure model a retry layer is built
// against. Flaky is the repository's failure-injection harness and is safe
// for concurrent use (the proxy drives it from many goroutines).
type Flaky struct {
	Inner Model
	// FailureRate in [0,1] is the per-attempt failure probability.
	FailureRate float64

	// attempt counts calls per prompt so consecutive retries of the same
	// request see independent draws.
	mu      sync.Mutex
	attempt map[string]int
}

// NewFlaky wraps a model with the given failure rate.
func NewFlaky(inner Model, rate float64) *Flaky {
	return &Flaky{Inner: inner, FailureRate: rate, attempt: make(map[string]int)}
}

// Name implements Model.
func (f *Flaky) Name() string { return f.Inner.Name() }

// Capability implements Model.
func (f *Flaky) Capability() float64 { return f.Inner.Capability() }

// Price implements Model.
func (f *Flaky) Price() token.Price { return f.Inner.Price() }

// Complete implements Model, failing transiently per the configured rate.
func (f *Flaky) Complete(ctx context.Context, req Request) (Response, error) {
	f.mu.Lock()
	n := f.attempt[req.Prompt]
	f.attempt[req.Prompt] = n + 1
	f.mu.Unlock()
	u := noiseUnit(f.Inner.Name(), fmt.Sprintf("%s|attempt=%d", req.Prompt, n), "flaky")
	if u < f.FailureRate {
		return Response{}, fmt.Errorf("%w (attempt %d)", ErrTransient, n+1)
	}
	return f.Inner.Complete(ctx, req)
}

// Retry wraps a model with bounded, context-aware retries on transient
// failures — the client-side persistence layer every production LLM
// integration carries. Between attempts it backs off exponentially from
// BaseDelay up to MaxDelay, scaled by deterministic jitter (a hash of
// model, prompt and attempt), so retry storms decorrelate across prompts
// while every run stays reproducible. Each attempt can carry its own
// deadline via AttemptTimeout; an attempt that times out while the
// caller's context is still live is retried like any transient failure.
// Non-transient errors propagate immediately.
type Retry struct {
	Inner Model
	// Attempts is the total number of tries (>= 1). 0 means 3.
	Attempts int
	// BaseDelay is the pause before the first retry; each further retry
	// doubles it. 0 means no backoff (retry immediately).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. 0 means uncapped.
	MaxDelay time.Duration
	// AttemptTimeout bounds each individual attempt. 0 means no per-call
	// deadline beyond the caller's context.
	AttemptTimeout time.Duration
	// Obs receives llm_retries_total / llm_retry_exhausted_total.
	Obs *obs.Registry
}

// NewRetry wraps a model with the given attempt budget and the default
// backoff schedule (2ms base doubling to a 250ms cap).
func NewRetry(inner Model, attempts int) *Retry {
	if attempts <= 0 {
		attempts = 3
	}
	return &Retry{
		Inner:     inner,
		Attempts:  attempts,
		BaseDelay: 2 * time.Millisecond,
		MaxDelay:  250 * time.Millisecond,
	}
}

// Name implements Model.
func (r *Retry) Name() string { return r.Inner.Name() }

// Capability implements Model.
func (r *Retry) Capability() float64 { return r.Inner.Capability() }

// Price implements Model.
func (r *Retry) Price() token.Price { return r.Inner.Price() }

// backoff returns the jittered pause before retry i (0-based): the
// exponential schedule scaled by a deterministic factor in [0.5, 1.5).
func (r *Retry) backoff(prompt string, i int) time.Duration {
	d := r.BaseDelay << uint(i)
	if d < r.BaseDelay {
		d = r.MaxDelay // shift overflow
	}
	if r.MaxDelay > 0 && d > r.MaxDelay {
		d = r.MaxDelay
	}
	jitter := 0.5 + noiseUnit(r.Inner.Name(), prompt, fmt.Sprintf("backoff|%d", i))
	return time.Duration(float64(d) * jitter)
}

// Complete implements Model.
func (r *Retry) Complete(ctx context.Context, req Request) (Response, error) {
	attempts := r.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	var last error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return Response{}, err
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if r.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.AttemptTimeout)
		}
		resp, err := r.Inner.Complete(actx, req)
		cancel()
		if err == nil {
			return resp, nil
		}
		// A per-attempt deadline expiring while the caller's context is
		// still live is a slow upstream — retryable, like ErrTransient.
		attemptTimedOut := errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
		if !errors.Is(err, ErrTransient) && !attemptTimedOut {
			return Response{}, err
		}
		r.Obs.Counter("llm_retries_total", "model", r.Inner.Name()).Inc()
		last = err
		if i == attempts-1 || r.BaseDelay <= 0 {
			continue
		}
		timer := time.NewTimer(r.backoff(req.Prompt, i))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return Response{}, ctx.Err()
		}
	}
	r.Obs.Counter("llm_retry_exhausted_total", "model", r.Inner.Name()).Inc()
	return Response{}, fmt.Errorf("llm: %d attempts exhausted: %w", attempts, last)
}

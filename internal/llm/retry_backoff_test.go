package llm

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fnModel adapts a function to Model for retry-layer test doubles.
type fnModel struct {
	f func(ctx context.Context, req Request) (Response, error)
}

func (m fnModel) Name() string { return "fn" }
func (m fnModel) Complete(ctx context.Context, req Request) (Response, error) {
	return m.f(ctx, req)
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	r := &Retry{Inner: flakyBase(), Attempts: 8,
		BaseDelay: 4 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	for i := 0; i < 8; i++ {
		d1, d2 := r.backoff("prompt", i), r.backoff("prompt", i)
		if d1 != d2 {
			t.Fatalf("backoff(%d) not deterministic: %v vs %v", i, d1, d2)
		}
		ideal := r.BaseDelay << uint(i)
		if ideal > r.MaxDelay {
			ideal = r.MaxDelay
		}
		if d1 < ideal/2 || d1 >= ideal+ideal/2 {
			t.Errorf("backoff(%d) = %v outside jitter band around %v", i, d1, ideal)
		}
	}
	// Different prompts decorrelate (no synchronized retry storms).
	if r.backoff("prompt a", 0) == r.backoff("prompt b", 0) {
		t.Error("identical jitter across prompts")
	}
}

func TestRetryRoutesMetricsThroughConfiguredRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	r := &Retry{Inner: NewFlaky(flakyBase(), 1.0), Attempts: 3, Obs: reg}
	if _, err := r.Complete(context.Background(), Request{Prompt: "doomed", Gold: "g"}); err == nil {
		t.Fatal("always-failing inner succeeded")
	}
	snap := reg.Snapshot()
	if snap[`llm_retries_total{model="base"}`] != 3 {
		t.Errorf("retries = %v, want 3", snap[`llm_retries_total{model="base"}`])
	}
	if snap[`llm_retry_exhausted_total{model="base"}`] != 1 {
		t.Errorf("exhausted = %v, want 1", snap[`llm_retry_exhausted_total{model="base"}`])
	}
}

func TestRetryAttemptTimeoutRetriesSlowAttempt(t *testing.T) {
	var calls atomic.Int32
	slowThenFast := fnModel{f: func(ctx context.Context, req Request) (Response, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // hang until the per-attempt deadline reaps us
			return Response{}, ctx.Err()
		}
		return Response{Text: "ok"}, nil
	}}
	r := &Retry{Inner: slowThenFast, Attempts: 3, AttemptTimeout: 5 * time.Millisecond}
	resp, err := r.Complete(context.Background(), Request{Prompt: "p", Gold: "g"})
	if err != nil {
		t.Fatalf("slow first attempt not retried: %v", err)
	}
	if resp.Text != "ok" || calls.Load() != 2 {
		t.Errorf("resp = %+v after %d calls", resp, calls.Load())
	}
}

func TestRetryAttemptTimeoutRespectsCallerDeadline(t *testing.T) {
	var calls atomic.Int32
	block := fnModel{f: func(ctx context.Context, req Request) (Response, error) {
		calls.Add(1)
		<-ctx.Done()
		return Response{}, ctx.Err()
	}}
	r := &Retry{Inner: block, Attempts: 5, AttemptTimeout: 50 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := r.Complete(ctx, Request{Prompt: "p"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the caller's deadline", err)
	}
	if calls.Load() != 1 {
		t.Errorf("caller-expired call retried %d times", calls.Load())
	}
}

package llm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/token"
)

func flakyBase() *SimModel {
	return NewSim(SimConfig{Name: "base", Capability: 0.9,
		Price: token.Price{InputPer1K: 1000, OutputPer1K: 2000}})
}

func TestFlakyFailsAtConfiguredRate(t *testing.T) {
	f := NewFlaky(flakyBase(), 0.3)
	fails := 0
	const n = 1000
	for i := 0; i < n; i++ {
		_, err := f.Complete(context.Background(), Request{
			Prompt: "question " + string(rune('a'+i%26)) + string(rune(i)), Gold: "g",
		})
		if err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("non-transient failure: %v", err)
			}
			fails++
		}
	}
	rate := float64(fails) / n
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("failure rate %.3f, want ~0.30", rate)
	}
}

func TestFlakyRetrySeesFreshDraws(t *testing.T) {
	// A 50%-flaky model must eventually succeed for every prompt when
	// retried — attempts draw independent noise.
	f := NewFlaky(flakyBase(), 0.5)
	for q := 0; q < 50; q++ {
		prompt := "retryable question " + string(rune('a'+q))
		ok := false
		for attempt := 0; attempt < 20; attempt++ {
			if _, err := f.Complete(context.Background(), Request{Prompt: prompt, Gold: "g"}); err == nil {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("prompt %q never succeeded in 20 attempts", prompt)
		}
	}
}

func TestRetryRecovers(t *testing.T) {
	f := NewFlaky(flakyBase(), 0.5)
	r := &Retry{Inner: f, Attempts: 10, BaseDelay: 2 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
	okCount := 0
	for i := 0; i < 100; i++ {
		resp, err := r.Complete(context.Background(), Request{
			Prompt: "resilient question number " + string(rune('a'+i%26)) + string(rune(i)),
			Gold:   "answer",
		})
		if err == nil {
			okCount++
			if resp.Text != "answer" {
				t.Errorf("recovered with wrong text %q", resp.Text)
			}
		}
	}
	// P(10 consecutive failures) = 2^-10; 100 prompts should essentially
	// all recover.
	if okCount < 98 {
		t.Errorf("only %d/100 recovered with 10 attempts", okCount)
	}
}

func TestRetryExhaustsAndReportsTransient(t *testing.T) {
	alwaysFail := NewFlaky(flakyBase(), 1.0)
	r := &Retry{Inner: alwaysFail, Attempts: 3}
	_, err := r.Complete(context.Background(), Request{Prompt: "doomed", Gold: "g"})
	if !errors.Is(err, ErrTransient) {
		t.Errorf("exhausted err = %v, want wrapped ErrTransient", err)
	}
}

func TestRetryPropagatesPermanentErrors(t *testing.T) {
	r := &Retry{Inner: flakyBase(), Attempts: 5}
	// Empty prompt is a permanent error: no retries, immediate propagation.
	_, err := r.Complete(context.Background(), Request{})
	if !errors.Is(err, ErrEmptyPrompt) {
		t.Errorf("err = %v, want ErrEmptyPrompt", err)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	alwaysFail := NewFlaky(flakyBase(), 1.0)
	r := &Retry{Inner: alwaysFail, Attempts: 1000, BaseDelay: 2 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Complete(ctx, Request{Prompt: "x", Gold: "g"}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestWrappersPreserveIdentity(t *testing.T) {
	base := flakyBase()
	f := NewFlaky(base, 0.1)
	r := &Retry{Inner: f, Attempts: 2}
	if r.Name() != base.Name() {
		t.Error("wrappers changed model identity")
	}
}

func TestRetryDefaultAttempts(t *testing.T) {
	r := &Retry{Inner: NewFlaky(flakyBase(), 1.0)}
	_, err := r.Complete(context.Background(), Request{Prompt: "x", Gold: "g"})
	if err == nil || !strings.Contains(err.Error(), "3 attempts exhausted") {
		t.Errorf("zero Attempts: err = %v, want 3 attempts exhausted", err)
	}
}

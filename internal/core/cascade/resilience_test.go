package cascade

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/token"
)

// errModel always fails with a fixed error.
type errModel struct {
	name string
	err  error
}

func (m errModel) Name() string        { return m.name }
func (m errModel) Capability() float64 { return 0.9 }
func (m errModel) Price() token.Price  { return token.Price{} }
func (m errModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return llm.Response{}, m.err
}

// frontModel serves another model's responses under its own tier name.
type frontModel struct{ llm.Model }

func (frontModel) Name() string { return "front" }

// TestEscalationCounterCountsEscalationsNotSteps pins the metric fix: both
// the success and the error path feed cascade_escalations_total from
// Trace.Escalations(), not from the raw step count.
func TestEscalationCounterCountsEscalationsNotSteps(t *testing.T) {
	reg := obs.NewRegistry()
	small := llm.NewSim(llm.SimConfig{Name: "s", Capability: 0.1,
		Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg})
	large := llm.NewSim(llm.SimConfig{Name: "l", Capability: 0.95,
		Price: token.Price{InputPer1K: 30000, OutputPer1K: 60000}, Obs: reg})
	hard := llm.Request{Prompt: "a hard question", Gold: "g", Wrong: "w", Difficulty: 0.6}

	// Success path: small rejected, large accepted — one escalation.
	c := &Cascade{Models: []llm.Model{small, large}, Decide: Threshold{Tau: 0.62}, Obs: reg}
	_, tr, err := c.Complete(context.Background(), hard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 2 || tr.Escalations() != 1 {
		t.Fatalf("trace = %+v, want 2 steps / 1 escalation", tr)
	}
	if got := reg.Snapshot()["cascade_escalations_total"]; got != 1 {
		t.Errorf("after success path: escalations counter = %v, want 1", got)
	}

	// Error path: small is consulted and rejected (one step, zero
	// escalations so far), then the next tier errors. The counter must add
	// Escalations() == 0, not len(Steps) == 1 — the old bug double-counted
	// here.
	c2 := &Cascade{Models: []llm.Model{small, errModel{"dead", llm.ErrTransient}},
		Decide: Threshold{Tau: 0.62}, Obs: reg}
	_, tr2, err := c2.Complete(context.Background(), hard)
	if err == nil {
		t.Fatal("error path did not error")
	}
	if len(tr2.Steps) != 1 || tr2.Escalations() != 0 {
		t.Fatalf("error trace = %+v, want 1 step / 0 escalations", tr2)
	}
	if got := reg.Snapshot()["cascade_escalations_total"]; got != 1 {
		t.Errorf("after error path: escalations counter = %v, want still 1", got)
	}

	// The whole vocabulary, pinned. Above: a reject→escalate, an accept and
	// a tier error. Add a breaker skip and a mid-generation early exit; then
	// every cascade_* series must hold exactly these values under exactly
	// these labels — the run path increments handles resolved once, and
	// that must not rename, merge or drop a series.
	c3 := &Cascade{Models: []llm.Model{small, large}, Decide: Threshold{Tau: 0.62},
		Breakers: trippedSet(t, reg, "s"), Obs: reg}
	if resp, _, err := c3.Complete(context.Background(), hard); err != nil || resp.Model != "l" {
		t.Fatalf("skip path: served by %q, err %v", resp.Model, err)
	}
	c4 := &Cascade{Models: []llm.Model{streamTier("cheap", 0.2, 400, 400), streamTier("strong", 0.95, 30000, 60000)},
		Decide: Threshold{Tau: 0.62}, ExitThreshold: 0.35, Obs: reg}
	rs, err := c4.CompleteStream(streamCtx(), hardReq())
	if err != nil {
		t.Fatal(err)
	}
	drainRun(t, rs)
	// cascade_final_model_total carries the name in the response, which a
	// wrapping double need not share with its tier.
	c5 := &Cascade{Models: []llm.Model{frontModel{large}}, Decide: Threshold{Tau: 0.62}, Obs: reg}
	if _, _, err := c5.Complete(context.Background(), hard); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for k, v := range reg.Snapshot() {
		if strings.HasPrefix(k, "cascade_") && v != 0 {
			got[k] = v
		}
	}
	want := map[string]float64{
		`cascade_requests_total`:                                  4,
		`cascade_escalations_total`:                               2,
		`cascade_steps_total{model="s",outcome="reject"}`:         2,
		`cascade_steps_total{model="l",outcome="accept"}`:         2,
		`cascade_steps_total{model="cheap",outcome="early_exit"}`: 1,
		`cascade_steps_total{model="strong",outcome="accept"}`:    1,
		`cascade_steps_total{model="front",outcome="accept"}`:     1,
		`cascade_early_exit_total{model="cheap"}`:                 1,
		`cascade_errors_total{model="dead"}`:                      1,
		`cascade_tier_skipped_total{model="s"}`:                   1,
		`cascade_final_model_total{model="l"}`:                    3,
		`cascade_final_model_total{model="strong"}`:               1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cascade series after accept, escalate, error, skip and early exit:\n got %v\nwant %v", got, want)
	}
}

func trippedSet(t *testing.T, reg *obs.Registry, names ...string) *resilience.BreakerSet {
	t.Helper()
	bs := resilience.NewBreakerSet(resilience.BreakerConfig{
		Window: 4, MinSamples: 2, FailureThreshold: 0.5, Cooldown: time.Hour, Obs: reg,
	})
	for _, n := range names {
		bs.Record(n, false)
		bs.Record(n, false)
		if bs.States()[n] != resilience.Open {
			t.Fatalf("breaker %q did not trip", n)
		}
	}
	return bs
}

// TestSkippedEscalationServesBestEffort: when the escalation target's
// breaker is open, the cascade serves the already-paid-for rejected answer
// instead of failing.
func TestSkippedEscalationServesBestEffort(t *testing.T) {
	reg := obs.NewRegistry()
	small := llm.NewSim(llm.SimConfig{Name: "s", Capability: 0.3,
		Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg})
	large := llm.NewSim(llm.SimConfig{Name: "l", Capability: 0.95,
		Price: token.Price{InputPer1K: 30000, OutputPer1K: 60000}, Obs: reg})
	c := &Cascade{Models: []llm.Model{small, large}, Decide: Threshold{Tau: 0.99},
		Breakers: trippedSet(t, reg, "l"), Obs: reg}

	resp, tr, err := c.Complete(context.Background(), llm.Request{
		Prompt: "q", Gold: "g", Wrong: "w", Difficulty: 0.3,
	})
	if err != nil {
		t.Fatalf("best-effort serve failed: %v", err)
	}
	if resp.Model != "s" {
		t.Errorf("served by %q, want the surviving small tier", resp.Model)
	}
	if len(tr.Steps) != 1 || !tr.Steps[0].Accepted {
		t.Errorf("trace = %+v, want the rejected step force-accepted", tr)
	}
	snap := reg.Snapshot()
	if snap["cascade_forced_accept_total"] != 1 {
		t.Errorf("forced accepts = %v", snap["cascade_forced_accept_total"])
	}
	if snap[`cascade_tier_skipped_total{model="l"}`] != 1 {
		t.Errorf("skips = %v", snap[`cascade_tier_skipped_total{model="l"}`])
	}
}

// TestAllTiersOpenErrors: when every tier's breaker rejects, the cascade
// returns ErrAllTiersOpen without attempting any model.
func TestAllTiersOpenErrors(t *testing.T) {
	reg := obs.NewRegistry()
	small := llm.NewSim(llm.SimConfig{Name: "s", Capability: 0.3, Obs: reg})
	large := llm.NewSim(llm.SimConfig{Name: "l", Capability: 0.95, Obs: reg})
	c := &Cascade{Models: []llm.Model{small, large}, Decide: Threshold{Tau: 0.62},
		Breakers: trippedSet(t, reg, "s", "l"), Obs: reg}

	_, tr, err := c.Complete(context.Background(), llm.Request{Prompt: "q", Gold: "g"})
	if !errors.Is(err, ErrAllTiersOpen) {
		t.Fatalf("err = %v, want ErrAllTiersOpen", err)
	}
	if len(tr.Steps) != 0 || tr.TotalCost != 0 {
		t.Errorf("trace = %+v, want nothing attempted", tr)
	}
	if got := reg.Snapshot()[`cascade_errors_total{model="none"}`]; got != 1 {
		t.Errorf("errors{none} = %v", got)
	}
}

// TestBreakerIgnoresClientCancellation: a canceled client context must not
// count as tier failure evidence.
func TestBreakerIgnoresClientCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	bs := resilience.NewBreakerSet(resilience.BreakerConfig{
		Window: 4, MinSamples: 1, FailureThreshold: 0.01, Cooldown: time.Hour, Obs: reg,
	})
	c := &Cascade{Models: []llm.Model{errModel{"c", context.Canceled}},
		Decide: Threshold{Tau: 0.5}, Breakers: bs, Obs: reg}
	if _, _, err := c.Complete(context.Background(), llm.Request{Prompt: "q"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st := bs.States()["c"]; st != resilience.Closed {
		t.Errorf("breaker = %v after a client cancellation, want closed", st)
	}
	// A genuinely transient failure does count (MinSamples 1 trips at once).
	c.Models = []llm.Model{errModel{"c", llm.ErrTransient}}
	c.Complete(context.Background(), llm.Request{Prompt: "q"})
	if st := bs.States()["c"]; st != resilience.Open {
		t.Errorf("breaker = %v after a real failure, want open", st)
	}
}

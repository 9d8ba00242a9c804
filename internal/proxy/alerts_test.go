package proxy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/token"
)

// TestAlertRulesDeclared pins the proxy's five rules as GET /v1/alerts
// lists them on a fresh proxy: name, severity, hold and description, all
// inactive at value 0.
func TestAlertRulesDeclared(t *testing.T) {
	want := []obs.AlertStatus{
		{Rule: "breaker_open", Severity: "error", ForMS: 0,
			Description: "a model tier's circuit breaker is open or probing; the cascade is skipping it"},
		{Rule: "shed_rate_high", Severity: "warn", ForMS: 30_000,
			Description: "the concurrency limiter is shedding more than 1 req/s"},
		{Rule: "slo_availability_burn_high", Severity: "error", ForMS: 30_000,
			Description: "a request class is burning its availability error budget more than 2x faster than the objective allows (5m window)"},
		{Rule: "slo_latency_burn_high", Severity: "warn", ForMS: 30_000,
			Description: "a request class is burning its latency error budget more than 2x faster than the objective allows (5m window)"},
		{Rule: "tenant_spend_spike", Severity: "warn", ForMS: 0,
			Description: "one tenant row's attributed spend, the shared overflow row included, is growing faster than $0.05/s"},
	}
	p := telemetryProxy(Config{})
	snap := p.Alerts().Evaluate()
	if len(snap.Rules) != len(want) {
		t.Fatalf("rules = %+v, want %d", snap.Rules, len(want))
	}
	for i, w := range want {
		w.State = "inactive"
		if got := snap.Rules[i]; got != w {
			t.Errorf("rule %d = %+v, want %+v", i, got, w)
		}
	}
}

// alertProxy builds a proxy on a fake clock, which its SLO tracker,
// breakers and alert engine read.
func alertProxy(cfg Config) (*Proxy, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg.Obs = obs.NewRegistry()
	return testProxyOn(cfg, clk.Now), clk
}

// rule evaluates p's alerts and returns the named rule's status.
func rule(t *testing.T, p *Proxy, name string) obs.AlertStatus {
	t.Helper()
	return findRule(t, p.Alerts().Evaluate(), name)
}

// TestAlertRulesReadTheirComponents drives each rule from the component
// it reads, on the shared fake clock.
func TestAlertRulesReadTheirComponents(t *testing.T) {
	t.Run("breaker_open", func(t *testing.T) {
		dead := namedModel{name: "dead", fn: func(context.Context, llm.Request) (llm.Response, error) {
			return llm.Response{}, llm.ErrTransient
		}}
		healthy := llm.NewSim(llm.SimConfig{Name: "healthy", Capability: 0.95,
			Price: token.Price{InputPer1K: 1000, OutputPer1K: 1000}})
		p, _ := alertProxy(Config{
			Models: []llm.Model{dead, healthy}, DisableCache: true,
		})
		if st := rule(t, p, "breaker_open"); st.State != "inactive" {
			t.Fatalf("before traffic: %+v", st)
		}
		// Eight failures trip the breaker; the shared clock holds it open.
		for i := 0; i < 8; i++ {
			p.Complete(context.Background(), llm.Request{Prompt: fmt.Sprintf("q%d", i), Gold: "g", Difficulty: 0.3})
		}
		if st := rule(t, p, "breaker_open"); st.State != "firing" || st.Value != 1 {
			t.Fatalf("dead tier: %+v, want firing at 1 (open)", st)
		}
	})

	t.Run("shed_rate_high", func(t *testing.T) {
		p, clk := alertProxy(Config{MaxConcurrent: 1})
		rule(t, p, "shed_rate_high") // the first evaluation has no rate
		if err := p.limiter.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, err := p.Complete(context.Background(), llm.Request{Prompt: "q", Gold: "g"}); !errors.Is(err, resilience.ErrOverloaded) {
				t.Fatalf("Complete = %v, want ErrOverloaded", err)
			}
		}
		p.limiter.Release()
		clk.Advance(10 * time.Second)
		if st := rule(t, p, "shed_rate_high"); st.State != "pending" || st.Value != 3 {
			t.Fatalf("30 sheds in 10s: %+v, want pending at 3/s", st)
		}
		clk.Advance(10 * time.Second)
		if st := rule(t, p, "shed_rate_high"); st.State != "inactive" || st.Value != 0 {
			t.Fatalf("quiet 10s: %+v, want inactive at 0", st)
		}
	})

	t.Run("tenant_spend_spike", func(t *testing.T) {
		p, clk := alertProxy(Config{})
		p.tenants.AddSpend("acme", 500, 0)
		rule(t, p, "tenant_spend_spike")
		p.tenants.AddSpend("acme", 1_000_000, 0)
		p.tenants.AddSpend("umbrella", 50, 0)
		clk.Advance(10 * time.Second)
		if st := rule(t, p, "tenant_spend_spike"); st.State != "firing" || st.Value != 100_000 {
			t.Fatalf("spike: %+v, want firing at 100000 µ$/s", st)
		}
		clk.Advance(10 * time.Second)
		if st := rule(t, p, "tenant_spend_spike"); st.State != "inactive" {
			t.Fatalf("quiet: %+v, want inactive", st)
		}
	})

	t.Run("slo_availability_burn_high", func(t *testing.T) {
		p, clk := alertProxy(Config{})
		for i := 0; i < 10; i++ {
			p.slo.Record("interactive", time.Millisecond, false)
		}
		// Every request failed against a 99% goal: burn 1/0.01 ≈ 100.
		if st := rule(t, p, "slo_availability_burn_high"); st.State != "pending" || math.Abs(st.Value-100) > 1e-9 {
			t.Fatalf("all failing: %+v, want pending at 100", st)
		}
		clk.Advance(31 * time.Second)
		if st := rule(t, p, "slo_availability_burn_high"); st.State != "firing" {
			t.Fatalf("after the 30s hold: %+v, want firing", st)
		}
	})
}

// The rate rules read their counters with no allocation once warm: a
// full tenant table is read into the rate's own maps, and the shed rule
// reuses its one key, so a /healthz poll costs no garbage per row.
func TestRateRulesAllocateNothing(t *testing.T) {
	p, _ := alertProxy(Config{})
	defer p.Close()
	for i := 0; i <= obs.DefaultTenantCapacity; i++ {
		p.tenants.AddSpend(fmt.Sprintf("tenant-%d", i), int64(i), 0)
	}
	for name, eval := range map[string]obs.AlertEval{
		"tenant_spend_spike": rate(p.tenants.ReadSpend, 50_000),
		"shed_rate_high":     rate(p.readShed, 1),
	} {
		eval(time.Second)
		eval(time.Second)
		if allocs := testing.AllocsPerRun(50, func() { eval(time.Second) }); allocs != 0 {
			t.Errorf("%s: a warm evaluation allocates %g times, want 0", name, allocs)
		}
	}
}

// A flood of new tenants trips tenant_spend_spike on the overflow row:
// past TenantCapacity every newcomer shares one row, so spend that no
// single tenant reaches still reads as one row growing past $0.05/s.
func TestTenantFloodTripsSpendSpike(t *testing.T) {
	const perRun = 10_000 // µ$ a cascade run, a fifth of the rule's bar a second
	flat := namedModel{name: "flat", fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Text: req.Gold, Confidence: 0.99, Model: "flat", Cost: perRun}, nil
	}}
	p, clk := alertProxy(Config{TenantCapacity: 2, Models: []llm.Model{flat}})
	defer p.Close()
	rule(t, p, "tenant_spend_spike")

	const tenants = 10
	for i := 0; i < tenants; i++ {
		ctx := obs.WithTenant(context.Background(), fmt.Sprintf("newcomer-%d", i))
		ans, err := p.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("flood question %d", i), Gold: "g"})
		if err != nil || ans.Source != "cascade" {
			t.Fatalf("tenant %d: %+v, %v; want a cascade run", i, ans, err)
		}
	}
	clk.Advance(time.Second)

	if st := rule(t, p, "tenant_spend_spike"); st.State != "firing" || st.Value != (tenants-2)*perRun {
		t.Fatalf("flood: %+v, want firing at %d µ$/s, the overflow row's growth", st, (tenants-2)*perRun)
	}
	snap := p.Tenants().Snapshot(0)
	if top := snap.Tenants[0]; top.Tenant != obs.OverflowTenant || top.SpendMicroUSD != (tenants-2)*perRun {
		t.Fatalf("top row = %+v, want the overflow row at %d µ$", top, (tenants-2)*perRun)
	}
	for _, ts := range snap.Tenants[1:] {
		if ts.SpendMicroUSD != perRun {
			t.Fatalf("named row %+v, want %d µ$", ts, perRun)
		}
	}
}

package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// alertHarness wires an engine to a fresh registry and event log on a
// settable clock.
func alertHarness() (*AlertEngine, *Registry, *time.Time) {
	reg := NewRegistry()
	now := time.Unix(1_700_000_000, 0)
	e := NewAlertEngine(AlertConfig{
		Obs: reg,
		Log: NewLogger(NewEventLog(256), Debug, reg),
		Now: func() time.Time { return now },
	})
	return e, reg, &now
}

// above is a threshold rule over a gauge: its value, and whether it
// exceeds limit.
func above(g *Gauge, limit float64) AlertEval {
	return func(time.Duration) (float64, bool) { return g.Value(), g.Value() > limit }
}

func TestAlertThresholdLifecycle(t *testing.T) {
	e, reg, now := alertHarness()
	g := reg.Gauge("breaker_state", "model", "gpt_heavy")
	e.AddRule("breaker_open", Error, 0, "", above(g, 0.5))

	snap := e.Evaluate()
	if snap.Rules[0].State != "inactive" || snap.Firing != 0 {
		t.Fatalf("closed breaker: %+v", snap)
	}

	// A zero hold fires in a single evaluation: pending and firing edges
	// both happen.
	g.Set(1)
	*now = now.Add(time.Second)
	snap = e.Evaluate()
	if snap.Firing != 1 || snap.Rules[0].State != "firing" {
		t.Fatalf("open breaker: %+v", snap)
	}
	if snap.Rules[0].Value != 1 {
		t.Fatalf("value = %g, want 1", snap.Rules[0].Value)
	}
	if snap.Rules[0].Since == nil {
		t.Fatal("firing rule has no since")
	}

	g.Set(0)
	*now = now.Add(time.Second)
	snap = e.Evaluate()
	if snap.Firing != 0 || snap.Rules[0].State != "inactive" {
		t.Fatalf("recovered breaker: %+v", snap)
	}

	if got := reg.Counter("alert_transitions_total", "state", "firing").Value(); got != 1 {
		t.Fatalf("firing transitions = %d, want 1", got)
	}
	if got := reg.Counter("alert_transitions_total", "state", "resolved").Value(); got != 1 {
		t.Fatalf("resolved transitions = %d, want 1", got)
	}

	// Every edge landed in the event log: pending, firing, resolved.
	events, _, _ := e.log.Sink().EventsSince(0, EventFilter{Name: "alert_transition"})
	if len(events) != 3 {
		t.Fatalf("alert_transition events = %d, want 3", len(events))
	}
	wantTo := []string{"pending", "firing", "resolved"}
	for i, ev := range events {
		if ev.Attrs["rule"] != "breaker_open" || ev.Attrs["to"] != wantTo[i] {
			t.Fatalf("event %d = %+v, want to=%s", i, ev.Attrs, wantTo[i])
		}
	}
}

func TestAlertForDurationHoldsPending(t *testing.T) {
	e, reg, now := alertHarness()
	g := reg.Gauge("queue_depth")
	e.AddRule("queue_deep", Warn, 30*time.Second, "", above(g, 10))

	g.Set(50)
	snap := e.Evaluate()
	if snap.Pending != 1 || snap.Firing != 0 {
		t.Fatalf("first eval: %+v", snap)
	}
	if snap.Rules[0].ForMS != 30_000 {
		t.Fatalf("for_ms = %g, want 30000", snap.Rules[0].ForMS)
	}

	// Still inside the hold window: pending, not firing.
	*now = now.Add(10 * time.Second)
	snap = e.Evaluate()
	if snap.Pending != 1 || snap.Firing != 0 {
		t.Fatalf("10s in: %+v", snap)
	}

	// The rule clears before the hold elapses: resolved without ever
	// firing.
	g.Set(0)
	*now = now.Add(5 * time.Second)
	snap = e.Evaluate()
	if snap.Pending != 0 || snap.Firing != 0 {
		t.Fatalf("cleared: %+v", snap)
	}
	if got := reg.Counter("alert_transitions_total", "state", "firing").Value(); got != 0 {
		t.Fatal("fired despite never holding for the hold duration")
	}

	// Re-trips and holds long enough: fires.
	g.Set(50)
	*now = now.Add(time.Second)
	e.Evaluate()
	*now = now.Add(31 * time.Second)
	snap = e.Evaluate()
	if snap.Firing != 1 {
		t.Fatalf("after hold: %+v", snap)
	}
}

// TestAlertRateOfChange: every eval gets the time since the previous
// evaluation, zero on the first.
func TestAlertRateOfChange(t *testing.T) {
	e, reg, now := alertHarness()
	c := reg.Counter("limiter_shed_total")
	var last int64
	e.AddRule("shed_rate_high", Warn, 0, "", func(elapsed time.Duration) (float64, bool) {
		cur := c.Value()
		delta := cur - last
		last = cur
		if elapsed <= 0 {
			return 0, false
		}
		r := float64(delta) / elapsed.Seconds()
		return r, r > 1
	})

	if snap := e.Evaluate(); snap.Pending+snap.Firing != 0 {
		t.Fatalf("first eval: %+v", snap)
	}

	// 30 sheds over 10 seconds = 3/s > 1/s.
	c.Add(30)
	*now = now.Add(10 * time.Second)
	snap := e.Evaluate()
	if snap.Firing != 1 || snap.Rules[0].Value != 3 {
		t.Fatalf("hot shed rate: %+v", snap)
	}

	// Flat counter → rate 0 → resolved.
	*now = now.Add(10 * time.Second)
	if snap = e.Evaluate(); snap.Firing != 0 {
		t.Fatalf("flat counter: %+v", snap)
	}
}

// TestAlertSLOBurn: a rule over an SLO tracker's 5m latency burn fires
// once a wave of slow requests burns the budget faster than 2x.
func TestAlertSLOBurn(t *testing.T) {
	e, reg, now := alertHarness()
	slo := NewSLOTracker(SLOConfig{
		Now: func() time.Time { return *now },
		Obs: reg,
	})
	e.AddRule("slo_latency_burn_high", Warn, 0, "", func(time.Duration) (float64, bool) {
		worst := 0.0
		for _, cs := range slo.Snapshot().Classes {
			worst = max(worst, cs.Windows["5m"].LatencyBurnRate)
		}
		return worst, worst > 2
	})

	// 100 requests all meeting the interactive 500ms target: no burn.
	for i := 0; i < 100; i++ {
		slo.Record("interactive", time.Millisecond, true)
	}
	if snap := e.Evaluate(); snap.Pending+snap.Firing != 0 {
		t.Fatalf("healthy: %+v", snap)
	}

	// Half the next wave blows the target: slow fraction ~0.33 over a
	// 0.05 budget = burn ~6.7 > 2.
	for i := 0; i < 50; i++ {
		slo.Record("interactive", 600*time.Millisecond, true)
	}
	*now = now.Add(time.Second)
	snap := e.Evaluate()
	if snap.Firing != 1 {
		t.Fatalf("burning: %+v", snap)
	}
}

// TestAlertTenantSpendRate: a rate rule over a tenant accountant's
// per-tenant spend fires on one tenant's spike and resolves when spend
// goes flat.
func TestAlertTenantSpendRate(t *testing.T) {
	e, reg, now := alertHarness()
	tenants := NewTenantAccountant(TenantConfig{Capacity: 8, Obs: reg})
	var prev map[string]int64
	e.AddRule("tenant_spend_spike", Warn, 0, "", func(elapsed time.Duration) (float64, bool) {
		cur := map[string]int64{}
		for _, ts := range tenants.Snapshot(0).Tenants {
			cur[ts.Tenant] = ts.SpendMicroUSD
		}
		last := prev
		prev = cur
		if elapsed <= 0 || last == nil {
			return 0, false
		}
		fastest := 0.0
		for k, v := range cur {
			fastest = max(fastest, float64(v-last[k])/elapsed.Seconds())
		}
		return fastest, fastest > 100
	})

	tenants.AddSpend("acme", 500, 0)
	e.Evaluate() // baseline

	// 10_000 μ$ in 10s = 1000 μ$/s for acme.
	tenants.AddSpend("acme", 10_000, 0)
	tenants.AddSpend("umbrella", 50, 0)
	*now = now.Add(10 * time.Second)
	snap := e.Evaluate()
	if snap.Firing != 1 || snap.Rules[0].Value != 1000 {
		t.Fatalf("spike: %+v", snap)
	}

	*now = now.Add(10 * time.Second)
	if snap = e.Evaluate(); snap.Firing != 0 {
		t.Fatalf("quiet: %+v", snap)
	}
}

// TestAlertConcurrentEvaluate: evaluations from many callers (the HTTP
// handlers and the ticker) run one at a time on a clock read under the
// engine's lock, so a rule that holds whenever time has passed — a rate
// rule on a busy counter — never sees a non-positive elapsed after its
// first evaluation and never spuriously resolves.
func TestAlertConcurrentEvaluate(t *testing.T) {
	reg := NewRegistry()
	var tick atomic.Int64
	e := NewAlertEngine(AlertConfig{
		Obs: reg,
		Now: func() time.Time { return time.Unix(0, tick.Add(int64(time.Millisecond))) },
	})
	first := true
	e.AddRule("always_busy", Warn, 0, "", func(elapsed time.Duration) (float64, bool) {
		if first {
			first = false
			return 1, true
		}
		return elapsed.Seconds(), elapsed > 0
	})

	const callers, rounds = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				e.Evaluate()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("alert_transitions_total", "state", "resolved").Value(); got != 0 {
		t.Fatalf("%d spurious resolved transitions under concurrent Evaluate", got)
	}
	if got := reg.Counter("alert_transitions_total", "state", "firing").Value(); got != 1 {
		t.Fatalf("firing transitions = %d, want 1", got)
	}
}

// TestAlertRuleNames: rule names share the metric-name charter.
func TestAlertRuleNames(t *testing.T) {
	e, _, _ := alertHarness()
	defer func() {
		if recover() == nil {
			t.Fatal("bad rule name did not panic")
		}
	}()
	e.AddRule("Bad-Name", Warn, 0, "", nil)
}

func TestAlertEngineNilSafe(t *testing.T) {
	var e *AlertEngine
	if snap := e.Evaluate(); len(snap.Rules) != 0 {
		t.Fatal("nil engine evaluated rules")
	}
	stop := e.Start(time.Second)
	stop()
}

func TestAlertStartStop(t *testing.T) {
	e, _, _ := alertHarness()
	evaluated := make(chan struct{}, 1)
	e.AddRule("breaker_open", Warn, 0, "", func(time.Duration) (float64, bool) {
		select {
		case evaluated <- struct{}{}:
		default:
		}
		return 1, true
	})
	stop := e.Start(time.Millisecond)
	defer stop()
	select {
	case <-evaluated:
		stop()
		stop() // idempotent
	case <-time.After(2 * time.Second):
		t.Fatal("background loop never evaluated")
	}
}

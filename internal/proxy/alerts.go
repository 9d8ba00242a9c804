package proxy

import (
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// addAlertRules registers the proxy's five alert rules, each reading the
// component it guards: SLO burn (latency and availability, 5m window),
// breaker open, shed rate and per-tenant spend spikes.
func (p *Proxy) addAlertRules() {
	p.alerts.AddRule("slo_latency_burn_high", obs.Warn, 30*time.Second,
		"a request class is burning its latency error budget more than 2x faster than the objective allows (5m window)",
		p.sloBurn(func(w obs.SLOWindow) float64 { return w.LatencyBurnRate }, 2))
	p.alerts.AddRule("slo_availability_burn_high", obs.Error, 30*time.Second,
		"a request class is burning its availability error budget more than 2x faster than the objective allows (5m window)",
		p.sloBurn(func(w obs.SLOWindow) float64 { return w.AvailabilityBurnRate }, 2))
	p.alerts.AddRule("breaker_open", obs.Error, 0,
		"a model tier's circuit breaker is open or probing; the cascade is skipping it",
		func(time.Duration) (float64, bool) {
			worst := resilience.Closed
			for _, st := range p.BreakerStates() {
				worst = max(worst, st)
			}
			return float64(worst), worst != resilience.Closed
		})
	p.alerts.AddRule("shed_rate_high", obs.Warn, 30*time.Second,
		"the concurrency limiter is shedding more than 1 req/s",
		rate(func() map[string]int64 { return map[string]int64{"": p.shed.Load()} }, 1))
	p.alerts.AddRule("tenant_spend_spike", obs.Warn, 0,
		"one tenant row's attributed spend, the shared overflow row included, is growing faster than $0.05/s",
		rate(func() map[string]int64 {
			snap := p.tenants.Snapshot(0)
			spend := make(map[string]int64, len(snap.Tenants))
			for _, t := range snap.Tenants {
				spend[t.Tenant] = t.SpendMicroUSD
			}
			return spend
		}, 50_000))
}

// sloBurn holds when any class's burn on the 5m window, as read by burn,
// exceeds above; its value is the worst class's burn.
func (p *Proxy) sloBurn(burn func(obs.SLOWindow) float64, above float64) obs.AlertEval {
	return func(time.Duration) (float64, bool) {
		worst := 0.0
		for _, cs := range p.slo.Snapshot().Classes {
			worst = max(worst, burn(cs.Windows["5m"]))
		}
		return worst, worst > above
	}
}

// rate holds when any of sample's counters grew faster than perSecAbove
// since the previous evaluation; its value is the fastest growth a second.
// A shrinking counter reads as 0. The previous sample lives in the
// closure, which is safe because the engine runs one evaluation at a time.
func rate(sample func() map[string]int64, perSecAbove float64) obs.AlertEval {
	var prev map[string]int64
	return func(elapsed time.Duration) (float64, bool) {
		cur, last := sample(), prev
		prev = cur
		if elapsed <= 0 || last == nil {
			return 0, false
		}
		fastest := 0.0
		for k, v := range cur {
			fastest = max(fastest, float64(v-last[k])/elapsed.Seconds())
		}
		return fastest, fastest > perSecAbove
	}
}

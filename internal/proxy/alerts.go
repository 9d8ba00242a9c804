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
		rate(p.readShed, 1))
	p.alerts.AddRule("tenant_spend_spike", obs.Warn, 0,
		"one tenant row's attributed spend, the shared overflow row included, is growing faster than $0.05/s",
		rate(p.tenants.ReadSpend, 50_000))
}

// readShed is shed_rate_high's sample: the limiter's one shed counter.
func (p *Proxy) readShed(into map[string]int64) { into[""] = p.shed.Load() }

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
// A shrinking counter reads as 0. sample fills the emptied map it is
// given. rate owns two and swaps them each evaluation, so the previous
// sample is kept without a map built per sample; they live in the
// closure, which is safe because the engine runs one evaluation at a time.
func rate(sample func(into map[string]int64), perSecAbove float64) obs.AlertEval {
	cur, prev := map[string]int64{}, map[string]int64{}
	sampled := false
	return func(elapsed time.Duration) (float64, bool) {
		cur, prev = prev, cur
		clear(cur)
		sample(cur)
		if elapsed <= 0 || !sampled {
			sampled = true
			return 0, false
		}
		fastest := 0.0
		for k, v := range cur {
			fastest = max(fastest, float64(v-prev[k])/elapsed.Seconds())
		}
		return fastest, fastest > perSecAbove
	}
}

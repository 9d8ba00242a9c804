// Fixture: the accepted shapes — lowercase_snake literals, lowercase
// constants from this package and from another, constants folded
// together, and dynamic dimensions as label values. Event emitters
// follow the same shapes, with the dynamic parts in kv attrs. A method
// that merely shares a name with an obs one is not the rule's business.
package fixture

import (
	"context"

	"repro/internal/obs"
)

const requestsTotal = "requests_total"

const escalateEvent = "cascade_escalate"

const prefix = "requests"

func register(reg *obs.Registry, model string) {
	reg.Counter("proxy_requests_total", "source", "cache")
	reg.Counter(requestsTotal)
	reg.Gauge(obs.DefaultTenant) // another package's constant: "anon"
	reg.Histogram("sched_batch_size", nil, "model", model)
	reg.Gauge("slo_burn_rate", "class", "interactive", "window", "5m")
	reg.Counter(prefix + "_total") // both operands constant: folded, then checked
}

// tally has obs-sounding methods; none of them is an obs method.
type tally struct{}

func (tally) Counter(name string) {}
func (tally) Emit(name string)    {}

func emitEvents(ctx context.Context, log *obs.Logger, model string) {
	log.Event(ctx, obs.Info, "proxy_admit", "model", model)
	log.Event(ctx, obs.Info, escalateEvent, "from", model)
	log.Emit(obs.Warn, "breaker_transition", "from", "closed", "to", "open")
	log.Emit(obs.Warn, obs.DefaultTenant, "queued", 3)
	tally{}.Emit("NOT A NAME")
	tally{}.Counter("Not-A-Metric " + model)
}

const spendSpikeRule = "tenant_spend_spike"

func registerAlerts(eng *obs.AlertEngine, tenant string) {
	eng.AddRule("slo_latency_burn_high", obs.Threshold{})
	eng.AddRule(spendSpikeRule, obs.Threshold{})
	eng.AddRule(obs.DefaultTenant, obs.Threshold{})
	// Dynamic dimensions belong in the condition, not the rule name.
	eng.AddRule("tenant_spend_spike", obs.Threshold{Labels: map[string]string{"tenant": tenant}})
}

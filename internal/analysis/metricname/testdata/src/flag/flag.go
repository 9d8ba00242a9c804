// Fixture: metric names that are not lowercase_snake constants are
// reported — bad literals, bad package constants, and any computed name,
// whether computed in the argument or earlier into a variable.
// Lifecycle event names (Logger.Event / Logger.Emit) get the same rule.
package fixture

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

const badMetricName = "Sched-Window.Seconds"

const badEventName = "SLO-Burn!"

func register(reg *obs.Registry, model string) {
	reg.Counter("BadName")                               // want "Counter metric name \"BadName\" is not lowercase_snake"
	reg.Gauge(badMetricName)                             // want "Gauge metric name constant badMetricName = \"Sched-Window.Seconds\" is not lowercase_snake"
	reg.Counter(fmt.Sprintf("requests_%s_total", model)) // want "Counter metric name is built dynamically"
	reg.Histogram("latency_"+model, nil)                 // want "Histogram metric name is built dynamically"
	reg.Gauge("slo_Burn_Rate", "class", "interactive")   // want "Gauge metric name \"slo_Burn_Rate\" is not lowercase_snake"
	n := "requests_" + model
	reg.Counter(n) // want "Counter metric name is built dynamically"
}

func emitEvents(ctx context.Context, log *obs.Logger, model string) {
	log.Event(ctx, obs.Info, "Proxy-Admit")                    // want "Event event name \"Proxy-Admit\" is not lowercase_snake"
	log.Event(ctx, obs.Info, badEventName, "model", model)     // want "Event event name constant badEventName = \"SLO-Burn!\" is not lowercase_snake"
	log.Event(ctx, obs.Info, "cascade_"+model)                 // want "Event event name is built dynamically"
	log.Emit(obs.Warn, fmt.Sprintf("breaker_%s", model))       // want "Emit event name is built dynamically"
	log.Emit(obs.Warn, "Breaker_Transition", "from", "closed") // want "Emit event name \"Breaker_Transition\" is not lowercase_snake"
}

const badRuleName = "SLO Burn High"

func registerAlerts(eng *obs.AlertEngine, tenant string) {
	eng.AddRule("Breaker-Open", obs.Warn, 0, "", nil)                        // want "AddRule alert-rule name \"Breaker-Open\" is not lowercase_snake"
	eng.AddRule(badRuleName, obs.Warn, 0, "", nil)                           // want "AddRule alert-rule name constant badRuleName = \"SLO Burn High\" is not lowercase_snake"
	eng.AddRule(fmt.Sprintf("spend_spike_%s", tenant), obs.Warn, 0, "", nil) // want "AddRule alert-rule name is built dynamically"
	eng.AddRule("tenant_"+tenant, obs.Warn, 0, "", nil)                      // want "AddRule alert-rule name is built dynamically"
}

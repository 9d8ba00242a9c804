package obs

import (
	"sort"
	"sync"
	"time"
)

// AlertState is one rule's position in the pending → firing → resolved
// lifecycle.
type AlertState int8

const (
	// AlertInactive means the rule does not currently hold.
	AlertInactive AlertState = iota
	// AlertPending means the rule holds but has not yet held for its
	// hold duration.
	AlertPending
	// AlertFiring means the rule has held for at least its hold
	// duration.
	AlertFiring
)

// String returns the lowercase state name.
func (s AlertState) String() string {
	switch s {
	case AlertPending:
		return "pending"
	case AlertFiring:
		return "firing"
	default:
		return "inactive"
	}
}

// AlertEval is one rule's predicate. It gets the time since the engine's
// previous evaluation (zero on the first) and returns the rule's current
// value (for display) and whether it holds. The engine calls every eval
// under its lock, one evaluation at a time, so an eval may keep state —
// a rate's previous sample — in its closure.
type AlertEval func(elapsed time.Duration) (value float64, active bool)

// alertRule is one registered rule plus its lifecycle state.
type alertRule struct {
	name     string
	eval     AlertEval
	hold     time.Duration
	severity Level
	desc     string

	state AlertState
	since time.Time // entered the current non-inactive state
	value float64
}

// AlertConfig parameterizes an AlertEngine.
type AlertConfig struct {
	// Obs receives alert_transitions_total{state} and the alert_firing /
	// alert_pending gauges.
	Obs *Registry
	// Log receives alert_transition lifecycle events.
	Log *Logger
	// Now is the clock; nil means time.Now.
	Now func() time.Time
}

// AlertEngine walks rules through pending → firing → resolved, with
// every transition emitted into the event log and counted in
// alert_transitions_total{state}. What a rule watches is its AlertEval's
// business: the engine knows no metric, tracker or table. Evaluation is
// on-demand (the /v1/alerts and /healthz handlers drive it) or periodic
// via Start. AlertEngine is safe for concurrent use; evaluations run one
// at a time.
type AlertEngine struct {
	reg *Registry
	log *Logger
	now func() time.Time

	mu     sync.Mutex
	rules  []*alertRule
	prevAt time.Time

	mToPending, mToFiring, mToResolved *Counter
	gFiring, gPending                  *Gauge
}

// NewAlertEngine builds an engine from cfg (no rules yet — see AddRule).
func NewAlertEngine(cfg AlertConfig) *AlertEngine {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	reg := cfg.Obs
	return &AlertEngine{
		reg:         reg,
		log:         cfg.Log,
		now:         now,
		mToPending:  reg.Counter("alert_transitions_total", "state", "pending"),
		mToFiring:   reg.Counter("alert_transitions_total", "state", "firing"),
		mToResolved: reg.Counter("alert_transitions_total", "state", "resolved"),
		gFiring:     reg.Gauge("alert_firing"),
		gPending:    reg.Gauge("alert_pending"),
	}
}

// AddRule registers one rule: it goes pending when eval holds and fires
// once eval has held for hold (0 fires in the same evaluation). The name
// must be lowercase_snake (panics otherwise, matching Registry semantics —
// rule names land in event attributes and dashboards and share the
// metric-name charter).
func (e *AlertEngine) AddRule(name string, severity Level, hold time.Duration, desc string, eval AlertEval) {
	if err := CheckMetricName(name); err != nil {
		panic(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = append(e.rules, &alertRule{name: name, eval: eval, hold: hold, severity: severity, desc: desc})
}

// AlertStatus is one rule's JSON-ready state for /v1/alerts.
type AlertStatus struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	State    string `json:"state"`
	// Value is the rule's value at the last evaluation.
	Value float64 `json:"value"`
	// ForMS is the rule's pending → firing hold requirement.
	ForMS float64 `json:"for_ms"`
	// Since is when the rule entered its current pending/firing state.
	Since       *time.Time `json:"since,omitempty"`
	Description string     `json:"description,omitempty"`
}

// AlertsSnapshot is the engine's JSON envelope.
type AlertsSnapshot struct {
	EvaluatedAt time.Time     `json:"evaluated_at"`
	Firing      int           `json:"firing"`
	Pending     int           `json:"pending"`
	Rules       []AlertStatus `json:"rules"`
}

// Evaluate runs every rule once, applies the state machine, and returns
// the resulting snapshot. Each transition is emitted as an
// alert_transition event and counted per target state. The clock is read
// under the lock, so concurrent callers take their instants in lock order
// and no eval ever sees a negative elapsed.
func (e *AlertEngine) Evaluate() AlertsSnapshot {
	if e == nil {
		return AlertsSnapshot{Rules: []AlertStatus{}}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	var elapsed time.Duration
	if !e.prevAt.IsZero() {
		elapsed = now.Sub(e.prevAt)
	}
	for _, r := range e.rules {
		v, active := r.eval(elapsed)
		r.value = v
		switch {
		case active && r.state == AlertInactive:
			e.transition(r, AlertPending, now)
			if now.Sub(r.since) >= r.hold {
				e.transition(r, AlertFiring, now)
			}
		case active && r.state == AlertPending:
			if now.Sub(r.since) >= r.hold {
				e.transition(r, AlertFiring, now)
			}
		case !active && r.state != AlertInactive:
			e.transition(r, AlertInactive, now)
		}
	}
	e.prevAt = now
	return e.snapshotLocked(now)
}

// transition moves r to next, metering and logging the edge. The
// "resolved" transition is the inactive edge from pending or firing.
// Caller holds e.mu.
func (e *AlertEngine) transition(r *alertRule, next AlertState, now time.Time) {
	from := r.state
	r.state = next
	r.since = now
	toName := next.String()
	switch next {
	case AlertPending:
		e.mToPending.Inc()
	case AlertFiring:
		e.mToFiring.Inc()
	case AlertInactive:
		toName = "resolved"
		e.mToResolved.Inc()
	}
	level := Warn
	if r.severity == Error && next == AlertFiring {
		level = Error
	}
	if next == AlertInactive {
		level = Info
	}
	// Transitions aggregate many requests, so the event is uncorrelated.
	e.log.Emit(level, "alert_transition",
		"rule", r.name, "from", from.String(), "to", toName,
		"value", r.value, "severity", r.severity.String())
}

// snapshotLocked renders the rules and refreshes the alert_firing /
// alert_pending gauges. Caller holds e.mu.
func (e *AlertEngine) snapshotLocked(at time.Time) AlertsSnapshot {
	snap := AlertsSnapshot{EvaluatedAt: at, Rules: make([]AlertStatus, 0, len(e.rules))}
	for _, r := range e.rules {
		st := AlertStatus{
			Rule:        r.name,
			Severity:    r.severity.String(),
			State:       r.state.String(),
			Value:       r.value,
			ForMS:       float64(r.hold.Microseconds()) / 1000,
			Description: r.desc,
		}
		if r.state != AlertInactive {
			since := r.since
			st.Since = &since
			if r.state == AlertFiring {
				snap.Firing++
			} else {
				snap.Pending++
			}
		}
		snap.Rules = append(snap.Rules, st)
	}
	sort.Slice(snap.Rules, func(i, j int) bool { return snap.Rules[i].Rule < snap.Rules[j].Rule })
	e.gFiring.Set(float64(snap.Firing))
	e.gPending.Set(float64(snap.Pending))
	return snap
}

// Start launches a periodic evaluation loop (for deployments where
// nothing polls /v1/alerts) and returns its stop function. Stop is
// idempotent.
func (e *AlertEngine) Start(interval time.Duration) (stop func()) {
	if e == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	Go(e.reg, "alert_eval", func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				e.Evaluate()
			case <-done:
				return
			}
		}
	})
	return func() { once.Do(func() { close(done) }) }
}

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
	// AlertInactive means the rule's condition does not currently hold.
	AlertInactive AlertState = iota
	// AlertPending means the condition holds but has not yet held for
	// the rule's for-duration.
	AlertPending
	// AlertFiring means the condition has held for at least the rule's
	// for-duration.
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

// AlertSeries is one metric series as the alert engine sees it: family
// name, label set and current value (histograms contribute their _count
// and _sum).
type AlertSeries struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// EvalContext is what a Condition evaluates against: one coherent view
// of the registry, the SLO scorecard and the tenant table, plus the
// previous evaluation's values for rate-of-change predicates.
type EvalContext struct {
	// Now is the evaluation instant (the engine's injected clock).
	Now time.Time
	// Elapsed is the time since the previous evaluation; zero on the
	// first, which disables rate-of-change conditions for that round.
	Elapsed time.Duration
	// Series is the registry's current state.
	Series []AlertSeries
	// Prev maps series key (name{labels}) → value at the previous
	// evaluation; nil on the first.
	Prev map[string]float64
	// SLO is the fresh per-class scorecard, nil when no tracker is
	// wired.
	SLO *SLOSnapshot
	// Tenants is the fresh tenant attribution table, nil when no
	// accountant is wired.
	Tenants *TenantSnapshot
	// PrevTenantSpend maps tenant → attributed spend at the previous
	// evaluation; nil on the first.
	PrevTenantSpend map[string]int64
}

// matches reports whether the series carries every want label with the
// wanted value (subset match).
func (s AlertSeries) matches(want map[string]string) bool {
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Condition is one declarative alert predicate. Eval returns the
// condition's current value (for display) and whether it holds.
type Condition interface {
	Eval(ec *EvalContext) (value float64, active bool)
}

// Threshold holds when any series of Metric matching Labels (subset
// match; nil matches all) exceeds Above. The reported value is the
// maximum across matches.
type Threshold struct {
	Metric string
	Labels map[string]string
	Above  float64
}

// Eval implements Condition.
func (c Threshold) Eval(ec *EvalContext) (float64, bool) {
	max, seen := 0.0, false
	for _, s := range ec.Series {
		if s.Name != c.Metric || !s.matches(c.Labels) {
			continue
		}
		if !seen || s.Value > max {
			max, seen = s.Value, true
		}
	}
	return max, seen && max > c.Above
}

// RateOfChange holds when any matching series of Metric grew faster
// than PerSecondAbove since the previous evaluation. Counter-shaped
// metrics only — a shrinking series reads as rate 0, not negative.
type RateOfChange struct {
	Metric         string
	Labels         map[string]string
	PerSecondAbove float64
}

// Eval implements Condition.
func (c RateOfChange) Eval(ec *EvalContext) (float64, bool) {
	if ec.Elapsed <= 0 || ec.Prev == nil {
		return 0, false
	}
	secs := ec.Elapsed.Seconds()
	max := 0.0
	for _, s := range ec.Series {
		if s.Name != c.Metric || !s.matches(c.Labels) {
			continue
		}
		delta := s.Value - ec.Prev[seriesKey(s)]
		if delta < 0 {
			delta = 0
		}
		if rate := delta / secs; rate > max {
			max = rate
		}
	}
	return max, max > c.PerSecondAbove
}

// SLOBurn holds when a class's error-budget burn rate exceeds Above on
// the given window. Class "" matches every class (value = the worst);
// SLO selects "latency" or "availability"; Window is "5m" or "1h".
type SLOBurn struct {
	Class  string
	SLO    string
	Window string
	Above  float64
}

// Eval implements Condition.
func (c SLOBurn) Eval(ec *EvalContext) (float64, bool) {
	if ec.SLO == nil {
		return 0, false
	}
	max := 0.0
	for class, cs := range ec.SLO.Classes {
		if c.Class != "" && class != c.Class {
			continue
		}
		w, ok := cs.Windows[c.Window]
		if !ok {
			continue
		}
		burn := w.LatencyBurnRate
		if c.SLO == "availability" {
			burn = w.AvailabilityBurnRate
		}
		if burn > max {
			max = burn
		}
	}
	return max, max > c.Above
}

// TenantSpendRate holds when any tracked tenant's attributed spend grew
// faster than MicroUSDPerSecondAbove since the previous evaluation —
// the per-tenant cost-spike detector.
type TenantSpendRate struct {
	MicroUSDPerSecondAbove float64
}

// Eval implements Condition.
func (c TenantSpendRate) Eval(ec *EvalContext) (float64, bool) {
	if ec.Tenants == nil || ec.Elapsed <= 0 || ec.PrevTenantSpend == nil {
		return 0, false
	}
	secs := ec.Elapsed.Seconds()
	max := 0.0
	for _, t := range ec.Tenants.Tenants {
		delta := float64(t.SpendMicroUSD - ec.PrevTenantSpend[t.Tenant])
		if delta < 0 {
			delta = 0
		}
		if rate := delta / secs; rate > max {
			max = rate
		}
	}
	return max, max > c.MicroUSDPerSecondAbove
}

// CondFunc adapts a plain function to Condition for predicates the
// declarative forms cannot express.
type CondFunc func(ec *EvalContext) (float64, bool)

// Eval implements Condition.
func (f CondFunc) Eval(ec *EvalContext) (float64, bool) { return f(ec) }

// seriesKey renders a series' identity (name{labels}) for the prev map.
func seriesKey(s AlertSeries) string {
	lbls := make([]Label, 0, len(s.Labels))
	for k, v := range s.Labels {
		lbls = append(lbls, Label{Key: k, Value: v})
	}
	sort.Slice(lbls, func(i, j int) bool { return lbls[i].Key < lbls[j].Key })
	return s.Name + promLabels(lbls, "", "")
}

// alertRule is one registered rule plus its lifecycle state.
type alertRule struct {
	name     string
	cond     Condition
	forDur   time.Duration
	severity Level
	desc     string

	state AlertState
	since time.Time // entered the current non-inactive state
	value float64
}

// RuleOption configures one AddRule registration.
type RuleOption func(*alertRule)

// ForDuration requires the condition to hold for d before the rule
// moves pending → firing (0 fires immediately).
func ForDuration(d time.Duration) RuleOption {
	return func(r *alertRule) { r.forDur = d }
}

// WithSeverity grades the rule (default Warn).
func WithSeverity(l Level) RuleOption {
	return func(r *alertRule) { r.severity = l }
}

// WithDescription attaches an operator-facing explanation.
func WithDescription(s string) RuleOption {
	return func(r *alertRule) { r.desc = s }
}

// AlertConfig parameterizes an AlertEngine.
type AlertConfig struct {
	// Source is the registry the conditions evaluate over.
	Source *Registry
	// SLO, when non-nil, feeds SLOBurn conditions (its Snapshot is taken
	// each evaluation, which also refreshes the slo_* gauges).
	SLO *SLOTracker
	// Tenants, when non-nil, feeds TenantSpendRate conditions.
	Tenants *TenantAccountant
	// Obs receives alert_transitions_total{state} and the alert_firing /
	// alert_pending gauges. Nil means Source.
	Obs *Registry
	// Log receives alert_transition lifecycle events.
	Log *Logger
	// Now is the clock; nil means time.Now. Injectable for tests.
	Now func() time.Time
}

// AlertEngine evaluates declarative rules over metric, SLO and tenant
// state, walking each through pending → firing → resolved with every
// transition emitted into the event log and counted in
// alert_transitions_total{state}. Evaluation is on-demand (the
// /v1/alerts and /healthz handlers drive it) or periodic via Start.
// AlertEngine is safe for concurrent use.
type AlertEngine struct {
	src     *Registry
	slo     *SLOTracker
	tenants *TenantAccountant
	log     *Logger
	now     func() time.Time

	mu         sync.Mutex
	rules      []*alertRule
	prev       map[string]float64
	prevTenant map[string]int64
	prevAt     time.Time

	mToPending, mToFiring, mToResolved *Counter
	gFiring, gPending                  *Gauge
}

// NewAlertEngine builds an engine from cfg (no rules yet — see AddRule
// and AddDefaultRules).
func NewAlertEngine(cfg AlertConfig) *AlertEngine {
	reg := cfg.Obs
	if reg == nil {
		reg = cfg.Source
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &AlertEngine{
		src:         cfg.Source,
		slo:         cfg.SLO,
		tenants:     cfg.Tenants,
		log:         cfg.Log,
		now:         now,
		mToPending:  reg.Counter("alert_transitions_total", "state", "pending"),
		mToFiring:   reg.Counter("alert_transitions_total", "state", "firing"),
		mToResolved: reg.Counter("alert_transitions_total", "state", "resolved"),
		gFiring:     reg.Gauge("alert_firing"),
		gPending:    reg.Gauge("alert_pending"),
	}
}

// AddRule registers one rule. The name must be lowercase_snake (panics
// otherwise, matching Registry semantics — rule names land in event
// attributes and dashboards and share the metric-name charter); a
// duplicate name replaces the earlier rule.
func (e *AlertEngine) AddRule(name string, cond Condition, opts ...RuleOption) {
	if err := CheckMetricName(name); err != nil {
		panic(err)
	}
	r := &alertRule{name: name, cond: cond, severity: Warn}
	for _, opt := range opts {
		opt(r)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, old := range e.rules {
		if old.name == name {
			e.rules[i] = r
			return
		}
	}
	e.rules = append(e.rules, r)
}

// AddDefaultRules registers the built-in rule pack: SLO burn (latency
// and availability, fast window), breaker-open, shed rate and
// per-tenant spend spikes.
func (e *AlertEngine) AddDefaultRules() {
	e.AddRule("slo_latency_burn_high",
		SLOBurn{SLO: "latency", Window: "5m", Above: 2},
		ForDuration(30*time.Second), WithSeverity(Warn),
		WithDescription("a request class is burning its latency error budget more than 2x faster than the objective allows (5m window)"))
	e.AddRule("slo_availability_burn_high",
		SLOBurn{SLO: "availability", Window: "5m", Above: 2},
		ForDuration(30*time.Second), WithSeverity(Error),
		WithDescription("a request class is burning its availability error budget more than 2x faster than the objective allows (5m window)"))
	e.AddRule("breaker_open",
		Threshold{Metric: "breaker_state", Above: 0.5}, WithSeverity(Error),
		WithDescription("a model tier's circuit breaker is open or probing; the cascade is skipping it"))
	e.AddRule("shed_rate_high",
		RateOfChange{Metric: "limiter_shed_total", PerSecondAbove: 1},
		ForDuration(30*time.Second), WithSeverity(Warn),
		WithDescription("the concurrency limiter is shedding more than 1 req/s"))
	e.AddRule("tenant_spend_spike",
		TenantSpendRate{MicroUSDPerSecondAbove: 50_000},
		WithSeverity(Warn),
		WithDescription("one tenant's attributed spend is growing faster than $0.05/s"))
}

// AlertStatus is one rule's JSON-ready state for /v1/alerts.
type AlertStatus struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	State    string `json:"state"`
	// Value is the condition's value at the last evaluation.
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

// buildContext assembles one coherent EvalContext. Taking the SLO
// snapshot first also refreshes the slo_* gauges, so Threshold rules
// over slo_burn_rate observe the same instant.
func (e *AlertEngine) buildContext(now time.Time) *EvalContext {
	ec := &EvalContext{Now: now}
	if e.slo != nil {
		snap := e.slo.Snapshot()
		ec.SLO = &snap
	}
	if e.tenants != nil {
		snap := e.tenants.Snapshot(0)
		ec.Tenants = &snap
	}
	for _, fe := range e.src.export() {
		for _, p := range fe.points {
			lbls := make(map[string]string, len(p.labels))
			for _, l := range p.labels {
				lbls[l.Key] = l.Value
			}
			if p.hist != nil {
				ec.Series = append(ec.Series,
					AlertSeries{Name: fe.name + "_count", Labels: lbls, Value: float64(p.hist.Count)},
					AlertSeries{Name: fe.name + "_sum", Labels: lbls, Value: p.hist.Sum})
				continue
			}
			ec.Series = append(ec.Series, AlertSeries{Name: fe.name, Labels: lbls, Value: p.value})
		}
	}
	return ec
}

// Evaluate runs every rule once against fresh state, applies the state
// machine, and returns the resulting snapshot. Each transition is
// emitted as an alert_transition event and counted per target state.
func (e *AlertEngine) Evaluate() AlertsSnapshot {
	if e == nil {
		return AlertsSnapshot{Rules: []AlertStatus{}}
	}
	now := e.now()
	ec := e.buildContext(now)

	e.mu.Lock()
	defer e.mu.Unlock()
	ec.Prev = e.prev
	ec.PrevTenantSpend = e.prevTenant
	if !e.prevAt.IsZero() {
		ec.Elapsed = now.Sub(e.prevAt)
	}

	for _, r := range e.rules {
		v, active := r.cond.Eval(ec)
		r.value = v
		switch {
		case active && r.state == AlertInactive:
			e.transition(r, AlertPending, now)
			if now.Sub(r.since) >= r.forDur {
				e.transition(r, AlertFiring, now)
			}
		case active && r.state == AlertPending:
			if now.Sub(r.since) >= r.forDur {
				e.transition(r, AlertFiring, now)
			}
		case !active && r.state != AlertInactive:
			e.transition(r, AlertInactive, now)
		}
	}

	// Persist this round's values for the next round's rate conditions.
	e.prev = make(map[string]float64, len(ec.Series))
	for _, s := range ec.Series {
		e.prev[seriesKey(s)] = s.Value
	}
	if ec.Tenants != nil {
		e.prevTenant = make(map[string]int64, len(ec.Tenants.Tenants))
		for _, t := range ec.Tenants.Tenants {
			e.prevTenant[t.Tenant] = t.SpendMicroUSD
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
		// since keeps the pending entry time so operators see how long the
		// condition has truly held; the transition instant is the event's.
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

// Snapshot returns the current rule states without re-evaluating.
func (e *AlertEngine) Snapshot() AlertsSnapshot {
	if e == nil {
		return AlertsSnapshot{Rules: []AlertStatus{}}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked(e.prevAt)
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
			ForMS:       float64(r.forDur.Microseconds()) / 1000,
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
	Go(e.src, "alert_eval", func() {
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

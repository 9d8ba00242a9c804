package obs

import (
	"sync"
	"time"
)

// SLO window geometry: one hour of 10-second buckets, with the short
// burn window spanning the newest 5 minutes of the same ring.
const (
	sloBucketSeconds = 10
	sloLongBuckets   = 360 // 1h
	sloShortBuckets  = 30  // 5m
)

// SLOWindows names the burn-rate windows every snapshot reports.
var SLOWindows = []string{"5m", "1h"}

// SLOObjective states what "good" means for one request class.
type SLOObjective struct {
	// LatencyTarget is the per-request latency bound; a request slower
	// than this is "slow" even if it succeeded.
	LatencyTarget time.Duration
	// LatencyGoal is the fraction of requests that must meet
	// LatencyTarget (e.g. 0.95).
	LatencyGoal float64
	// AvailabilityGoal is the fraction of requests that must succeed
	// (e.g. 0.99).
	AvailabilityGoal float64
}

// withDefaults fills zero fields: interactive traffic gets a tight
// latency bound, everything else a relaxed one.
func (o SLOObjective) withDefaults(class string) SLOObjective {
	if o.LatencyTarget <= 0 {
		if class == "interactive" {
			o.LatencyTarget = 500 * time.Millisecond
		} else {
			o.LatencyTarget = 5 * time.Second
		}
	}
	if o.LatencyGoal <= 0 {
		o.LatencyGoal = 0.95
	}
	if o.AvailabilityGoal <= 0 {
		o.AvailabilityGoal = 0.99
	}
	return o
}

// SLOConfig parameterizes an SLOTracker.
type SLOConfig struct {
	// Objectives maps request class → objective. Classes recorded but
	// not listed here get per-class defaults, so the tracker never drops
	// traffic on the floor.
	Objectives map[string]SLOObjective
	// Now is the clock; nil means time.Now. Injectable for tests.
	Now func() time.Time
	// Obs receives slo_requests_total / slo_errors_total /
	// slo_slow_total counters and slo_burn_rate / slo_attainment gauges.
	Obs *Registry
}

// sloBucket is one 10-second slice of a class's traffic.
type sloBucket struct {
	epoch  int64 // unix time / sloBucketSeconds; stale buckets are recycled
	total  int64
	errors int64
	slow   int64
}

// sloClass is the tracker's per-class state.
type sloClass struct {
	obj     SLOObjective
	buckets [sloLongBuckets]sloBucket

	mTotal  *Counter
	mErrors *Counter
	mSlow   *Counter
	// gauges are the class's slo_burn_rate / slo_attainment series, one
	// set per entry of SLOWindows; Snapshot refreshes them.
	gauges []sloGauges
}

// sloGauges are one class × window's scores as metric series.
type sloGauges struct {
	availabilityBurn, latencyBurn, availability, latency *Gauge
}

// SLOTracker scores per-class traffic against latency and availability
// objectives and computes multi-window (5m/1h) error-budget burn rates.
// A burn rate of 1.0 means the class is spending its budget exactly as
// fast as the objective allows; sustained rates far above 1 on both
// windows mean the SLO will be missed. SLOTracker is safe for
// concurrent use.
type SLOTracker struct {
	cfg SLOConfig
	now func() time.Time

	mu      sync.Mutex
	classes map[string]*sloClass
}

// NewSLOTracker builds a tracker from cfg.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &SLOTracker{cfg: cfg, now: now, classes: make(map[string]*sloClass)}
}

// class returns (creating on first use) the state for a class. Caller
// holds t.mu.
func (t *SLOTracker) classLocked(name string) *sloClass {
	c := t.classes[name]
	if c == nil {
		obj := t.cfg.Objectives[name].withDefaults(name)
		c = &sloClass{
			obj:     obj,
			mTotal:  t.cfg.Obs.Counter("slo_requests_total", "class", name),
			mErrors: t.cfg.Obs.Counter("slo_errors_total", "class", name),
			mSlow:   t.cfg.Obs.Counter("slo_slow_total", "class", name),
		}
		for _, window := range SLOWindows {
			c.gauges = append(c.gauges, sloGauges{
				availabilityBurn: t.cfg.Obs.Gauge("slo_burn_rate", "class", name, "slo", "availability", "window", window),
				latencyBurn:      t.cfg.Obs.Gauge("slo_burn_rate", "class", name, "slo", "latency", "window", window),
				availability:     t.cfg.Obs.Gauge("slo_attainment", "class", name, "slo", "availability", "window", window),
				latency:          t.cfg.Obs.Gauge("slo_attainment", "class", name, "slo", "latency", "window", window),
			})
		}
		t.classes[name] = c
	}
	return c
}

// Record scores one finished request: its class, wall-clock latency,
// and whether it produced a usable answer.
func (t *SLOTracker) Record(class string, latency time.Duration, ok bool) {
	if t == nil {
		return
	}
	epoch := t.now().Unix() / sloBucketSeconds
	slow := false

	t.mu.Lock()
	c := t.classLocked(class)
	slow = latency > c.obj.LatencyTarget
	b := &c.buckets[epoch%sloLongBuckets]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	b.total++
	if !ok {
		b.errors++
	}
	if slow {
		b.slow++
	}
	t.mu.Unlock()

	c.mTotal.Inc()
	if !ok {
		c.mErrors.Inc()
	}
	if slow {
		c.mSlow.Inc()
	}
}

// SLOWindow is one class's scorecard over one lookback window.
type SLOWindow struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Slow     int64 `json:"slow"`
	// Availability and LatencyAttainment are good-request fractions
	// (1.0 with no traffic — an idle service is not failing).
	Availability      float64 `json:"availability"`
	LatencyAttainment float64 `json:"latency_attainment"`
	// Burn rates are bad-fraction / budget-fraction: 1.0 burns the
	// error budget exactly at the objective's allowed pace.
	AvailabilityBurnRate float64 `json:"availability_burn_rate"`
	LatencyBurnRate      float64 `json:"latency_burn_rate"`
}

// SLOClassSnapshot is one class's objectives plus per-window scores.
type SLOClassSnapshot struct {
	Objective struct {
		LatencyTargetMS  float64 `json:"latency_target_ms"`
		LatencyGoal      float64 `json:"latency_goal"`
		AvailabilityGoal float64 `json:"availability_goal"`
	} `json:"objective"`
	Windows map[string]SLOWindow `json:"windows"`
}

// SLOSnapshot is the full JSON-ready SLO scorecard, served at /v1/slo.
type SLOSnapshot struct {
	Classes map[string]SLOClassSnapshot `json:"classes"`
}

// Snapshot computes the current scorecard and refreshes the
// slo_burn_rate{class,slo,window} and slo_attainment{class,slo,window}
// gauges, so scraping /metrics after Snapshot sees fresh values.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	snap := SLOSnapshot{Classes: make(map[string]SLOClassSnapshot)}
	if t == nil {
		return snap
	}
	epoch := t.now().Unix() / sloBucketSeconds

	t.mu.Lock()
	for name, c := range t.classes {
		cs := SLOClassSnapshot{Windows: make(map[string]SLOWindow, len(SLOWindows))}
		cs.Objective.LatencyTargetMS = float64(c.obj.LatencyTarget.Microseconds()) / 1000
		cs.Objective.LatencyGoal = c.obj.LatencyGoal
		cs.Objective.AvailabilityGoal = c.obj.AvailabilityGoal
		for wi, window := range SLOWindows {
			span := int64(sloLongBuckets)
			if window == "5m" {
				span = sloShortBuckets
			}
			var w SLOWindow
			for i := range c.buckets {
				b := &c.buckets[i]
				if b.epoch > epoch-span && b.epoch <= epoch {
					w.Requests += b.total
					w.Errors += b.errors
					w.Slow += b.slow
				}
			}
			w.Availability, w.AvailabilityBurnRate = sloScore(w.Requests, w.Errors, c.obj.AvailabilityGoal)
			w.LatencyAttainment, w.LatencyBurnRate = sloScore(w.Requests, w.Slow, c.obj.LatencyGoal)
			cs.Windows[window] = w
			g := c.gauges[wi]
			g.availabilityBurn.Set(w.AvailabilityBurnRate)
			g.latencyBurn.Set(w.LatencyBurnRate)
			g.availability.Set(w.Availability)
			g.latency.Set(w.LatencyAttainment)
		}
		snap.Classes[name] = cs
	}
	t.mu.Unlock()
	return snap
}

// sloScore turns (total, bad, goal) into (good fraction, burn rate).
// With no traffic the class is attaining (1.0) and burning nothing.
func sloScore(total, bad int64, goal float64) (attainment, burn float64) {
	if total == 0 {
		return 1, 0
	}
	badFrac := float64(bad) / float64(total)
	budget := 1 - goal
	if budget <= 0 {
		budget = 1e-9 // a 100% goal has no budget; any badness burns hard
	}
	return 1 - badFrac, badFrac / budget
}

package obs

import (
	"math"
	"testing"
	"time"
)

// sloHarness returns a tracker on a settable fake clock.
func sloHarness() (*SLOTracker, *Registry, *time.Time) {
	reg := NewRegistry()
	now := time.Unix(1_700_000_000, 0)
	t := NewSLOTracker(SLOConfig{
		Now: func() time.Time { return now },
		Obs: reg,
	})
	return t, reg, &now
}

func TestSLONoTrafficAttains(t *testing.T) {
	tr, _, _ := sloHarness()
	snap := tr.Snapshot()
	if len(snap.Classes) != 0 {
		t.Fatalf("idle tracker reported %d classes, want 0", len(snap.Classes))
	}
	var nilTracker *SLOTracker
	nilTracker.Record("interactive", time.Millisecond, true) // must not panic
	if got := nilTracker.Snapshot(); len(got.Classes) != 0 {
		t.Fatal("nil tracker snapshot not empty")
	}
}

func TestSLOBurnRateMath(t *testing.T) {
	tr, reg, _ := sloHarness()
	// 100 requests against the interactive class's 500ms target, 95%
	// latency goal and 99% availability goal: 2 errors, 10 slow.
	for i := 0; i < 100; i++ {
		lat := 400 * time.Millisecond
		if i < 10 {
			lat = 600 * time.Millisecond
		}
		tr.Record("interactive", lat, i >= 2)
	}
	snap := tr.Snapshot()
	w := snap.Classes["interactive"].Windows["5m"]
	if w.Requests != 100 || w.Errors != 2 || w.Slow != 10 {
		t.Fatalf("window = %+v, want 100 requests / 2 errors / 10 slow", w)
	}
	// Availability burn: badFrac 0.02 over budget 0.01 = 2.0.
	if math.Abs(w.AvailabilityBurnRate-2.0) > 1e-9 {
		t.Errorf("availability burn = %g, want 2.0", w.AvailabilityBurnRate)
	}
	if math.Abs(w.Availability-0.98) > 1e-9 {
		t.Errorf("availability = %g, want 0.98", w.Availability)
	}
	// Latency burn: badFrac 0.10 over budget 0.05 = 2.0.
	if math.Abs(w.LatencyBurnRate-2.0) > 1e-9 {
		t.Errorf("latency burn = %g, want 2.0", w.LatencyBurnRate)
	}
	// The 1h window sees the same traffic.
	if lw := snap.Classes["interactive"].Windows["1h"]; lw.Requests != 100 {
		t.Errorf("1h window requests = %d, want 100", lw.Requests)
	}
	// Snapshot refreshed the gauges.
	if g := reg.Gauge("slo_burn_rate", "class", "interactive", "slo", "availability", "window", "5m").Value(); math.Abs(g-2.0) > 1e-9 {
		t.Errorf("slo_burn_rate gauge = %g, want 2.0", g)
	}
	if g := reg.Gauge("slo_attainment", "class", "interactive", "slo", "latency", "window", "5m").Value(); math.Abs(g-0.90) > 1e-9 {
		t.Errorf("slo_attainment gauge = %g, want 0.90", g)
	}
	// Counters track totals.
	if v := reg.Counter("slo_requests_total", "class", "interactive").Value(); v != 100 {
		t.Errorf("slo_requests_total = %d, want 100", v)
	}
	if v := reg.Counter("slo_slow_total", "class", "interactive").Value(); v != 10 {
		t.Errorf("slo_slow_total = %d, want 10", v)
	}
}

func TestSLOWindowRollOff(t *testing.T) {
	tr, _, now := sloHarness()
	tr.Record("batch", time.Millisecond, false) // one error now

	// 6 minutes later it has left the 5m window but not the 1h window.
	*now = now.Add(6 * time.Minute)
	snap := tr.Snapshot()
	if w := snap.Classes["batch"].Windows["5m"]; w.Requests != 0 || w.AvailabilityBurnRate != 0 {
		t.Errorf("5m window after 6min = %+v, want empty", w)
	}
	if w := snap.Classes["batch"].Windows["1h"]; w.Requests != 1 || w.Errors != 1 {
		t.Errorf("1h window after 6min = %+v, want the recorded request", w)
	}

	// 2 hours later it has left both windows, and the stale bucket is
	// recycled rather than double-counted when new traffic lands on it.
	*now = now.Add(2 * time.Hour)
	snap = tr.Snapshot()
	if w := snap.Classes["batch"].Windows["1h"]; w.Requests != 0 {
		t.Errorf("1h window after 2h = %+v, want empty", w)
	}
	if w := snap.Classes["batch"].Windows["1h"]; w.Availability != 1 {
		t.Errorf("idle availability = %g, want 1.0", w.Availability)
	}
	tr.Record("batch", time.Millisecond, true)
	snap = tr.Snapshot()
	if w := snap.Classes["batch"].Windows["5m"]; w.Requests != 1 || w.Errors != 0 {
		t.Errorf("recycled bucket window = %+v, want 1 request / 0 errors", w)
	}
}

func TestSLODefaultsPerClass(t *testing.T) {
	tr, _, _ := sloHarness()
	tr.Record("interactive", time.Millisecond, true)
	tr.Record("batch", time.Millisecond, true)
	snap := tr.Snapshot()
	if ms := snap.Classes["interactive"].Objective.LatencyTargetMS; ms != 500 {
		t.Errorf("interactive default latency target = %gms, want 500ms", ms)
	}
	if ms := snap.Classes["batch"].Objective.LatencyTargetMS; ms != 5000 {
		t.Errorf("batch default latency target = %gms, want 5000ms", ms)
	}
	if g := snap.Classes["batch"].Objective.AvailabilityGoal; g != 0.99 {
		t.Errorf("default availability goal = %g, want 0.99", g)
	}
}

// A 100% goal has no error budget: any bad request burns it hard rather
// than dividing by zero.
func TestSLOPerfectGoalBurnsHard(t *testing.T) {
	attainment, burn := sloScore(1, 1, 1.0)
	if attainment != 0 || burn < 1e6 || math.IsInf(burn, 0) {
		t.Errorf("one bad request of one with zero budget: attainment %g, burn %g; want 0 and huge but finite", attainment, burn)
	}
}

package resilience

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is an injectable clock for deterministic cooldown walks.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1000, 0)} }
func cfg(c *fakeClock, reg *obs.Registry) BreakerConfig {
	return BreakerConfig{Now: c.now, Obs: reg}
}

// call runs one call through b: admitted, it records ok under its epoch.
func call(b *Breaker, ok bool) (admitted bool) {
	epoch, admitted := b.Allow()
	if admitted {
		b.Record(epoch, ok)
	}
	return admitted
}

func TestBreakerStaysClosedUnderSuccess(t *testing.T) {
	b := NewBreaker("m", cfg(newClock(), obs.NewRegistry()))
	for i := 0; i < 50; i++ {
		if !call(b, true) {
			t.Fatal("closed breaker rejected")
		}
	}
	if b.State() != Closed {
		t.Errorf("state = %v", b.State())
	}
}

func TestBreakerTripsOnFailureWindow(t *testing.T) {
	clock := newClock()
	reg := obs.NewRegistry()
	b := NewBreaker("m", cfg(clock, reg))
	// Below breakerMinSamples nothing trips, even at 100% failure.
	for i := 0; i < breakerMinSamples-1; i++ {
		call(b, false)
	}
	if b.State() != Closed {
		t.Fatal("tripped below breakerMinSamples")
	}
	call(b, false) // 8th failure: window is 8/8 failing ≥ 0.5
	if b.State() != Open {
		t.Fatalf("state = %v, want Open", b.State())
	}
	if _, ok := b.Allow(); ok {
		t.Error("open breaker admitted a call")
	}
	snap := reg.Snapshot()
	if snap[`breaker_transitions_total{name="m",to="open"}`] != 1 {
		t.Errorf("transition counter: %v", snap)
	}
	if snap[`breaker_rejections_total{name="m"}`] == 0 {
		t.Error("rejection not counted")
	}
	if snap[`breaker_state{name="m"}`] != float64(Open) {
		t.Errorf("state gauge: %v", snap[`breaker_state{name="m"}`])
	}
}

func tripped(t *testing.T, clock *fakeClock, reg *obs.Registry) *Breaker {
	t.Helper()
	b := NewBreaker("m", cfg(clock, reg))
	for i := 0; i < breakerMinSamples; i++ {
		call(b, false)
	}
	if b.State() != Open {
		t.Fatal("breaker did not trip")
	}
	return b
}

func TestBreakerHalfOpenRecovers(t *testing.T) {
	clock := newClock()
	b := tripped(t, clock, obs.NewRegistry())
	clock.advance(2 * time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state after cooldown = %v", b.State())
	}
	// One probe at a time: a second concurrent call is rejected.
	probe, ok := b.Allow()
	if !ok {
		t.Fatal("half-open breaker rejected the probe")
	}
	if _, ok := b.Allow(); ok {
		t.Error("half-open breaker admitted two concurrent probes")
	}
	b.Record(probe, true)
	if b.State() != Closed {
		t.Errorf("state = %v after the probe succeeded", b.State())
	}
	// The window restarts clean: one failure must not re-trip.
	call(b, false)
	if b.State() != Closed {
		t.Error("re-tripped from a stale window")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := newClock()
	b := tripped(t, clock, obs.NewRegistry())
	clock.advance(2 * time.Second)
	if !call(b, false) {
		t.Fatal("probe rejected")
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want Open after failed probe", b.State())
	}
	if _, ok := b.Allow(); ok {
		t.Error("reopened breaker admitted a call before the next cooldown")
	}
	// The cooldown restarts from the failed probe.
	clock.advance(2 * time.Second)
	if _, ok := b.Allow(); !ok {
		t.Error("probe rejected after second cooldown")
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	// 20-slot window at 50%: old outcomes age out, and the trip fires
	// exactly when the live window crosses the threshold.
	b := NewBreaker("m", cfg(newClock(), obs.NewRegistry()))
	for i := 0; i < breakerWindow; i++ {
		call(b, true)
	}
	for i := 0; i < 9; i++ {
		call(b, false) // window now 11 successes + 9 failures = 0.45
	}
	if b.State() != Closed {
		t.Fatalf("state = %v below threshold", b.State())
	}
	call(b, false) // 10 failures / 20 = 0.5: trip
	if b.State() != Open {
		t.Errorf("state = %v at the threshold edge", b.State())
	}
}

func TestBreakerSetIsPerName(t *testing.T) {
	clock := newClock()
	s := NewBreakerSet(cfg(clock, obs.NewRegistry()))
	for i := 0; i < breakerMinSamples; i++ {
		epoch, _ := s.Allow("sick")
		s.Record("sick", epoch, false)
	}
	if _, ok := s.Allow("sick"); ok {
		t.Error("tripped breaker allowed")
	}
	if _, ok := s.Allow("healthy"); !ok {
		t.Error("independent breaker rejected")
	}
	states := s.States()
	if states["sick"] != Open || states["healthy"] != Closed {
		t.Errorf("states = %v", states)
	}
}

// A call admitted while the breaker was closed can return after the trip
// and the cooldown, while the probe is out. Its success says nothing about
// the tier now: it must not close the breaker, and the probe's failure
// must reopen it.
func TestBreakerIgnoresLateResultFromBeforeTheTrip(t *testing.T) {
	clock := newClock()
	b := NewBreaker("m", cfg(clock, obs.NewRegistry()))
	late, ok := b.Allow()
	if !ok {
		t.Fatal("closed breaker rejected")
	}
	for i := 0; i < breakerMinSamples; i++ {
		call(b, false)
	}
	clock.advance(breakerCooldown)
	probe, ok := b.Allow()
	if !ok {
		t.Fatal("probe rejected after the cooldown")
	}
	b.Record(late, true)
	if got := b.State(); got != HalfOpen {
		t.Fatalf("a success admitted before the trip moved the breaker to %v", got)
	}
	b.Record(probe, false)
	if got := b.State(); got != Open {
		t.Fatalf("state = %v after the probe failed, want open", got)
	}
	if _, ok := b.Allow(); ok {
		t.Error("the failing tier is taking traffic again")
	}
}

// A probe whose caller never reports must not wedge the breaker: once it
// has been out a full cooldown, the next call is a new probe.
func TestBreakerPresumesALostProbeLost(t *testing.T) {
	clock := newClock()
	b := tripped(t, clock, obs.NewRegistry())
	clock.advance(breakerCooldown)
	if _, ok := b.Allow(); !ok {
		t.Fatal("probe rejected after the cooldown")
	}
	clock.advance(breakerCooldown - time.Millisecond)
	if _, ok := b.Allow(); ok {
		t.Fatal("a second probe was admitted while the first is still due")
	}
	clock.advance(time.Millisecond)
	probe, ok := b.Allow()
	if !ok {
		t.Fatal("the breaker is wedged half-open behind a lost probe")
	}
	b.Record(probe, true)
	if got := b.State(); got != Closed {
		t.Errorf("state = %v after the new probe succeeded, want closed", got)
	}
}

// A probe slower than the cooldown is presumed lost and a second probe is
// admitted, but the slow one's report still decides: otherwise a tier
// whose calls outlast the cooldown could never close under steady
// traffic. The other probe's later report then says nothing.
func TestBreakerSlowProbeStillDecides(t *testing.T) {
	clock := newClock()
	b := tripped(t, clock, obs.NewRegistry())
	clock.advance(breakerCooldown)
	slow, ok := b.Allow()
	if !ok {
		t.Fatal("probe rejected after the cooldown")
	}
	clock.advance(breakerCooldown)
	second, ok := b.Allow()
	if !ok {
		t.Fatal("no second probe after the first was out a full cooldown")
	}
	b.Record(slow, true)
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v after the slow probe succeeded, want closed", got)
	}
	b.Record(second, false)
	if got := b.State(); got != Closed {
		t.Errorf("the second probe's late failure moved the breaker to %v", got)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

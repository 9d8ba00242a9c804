// Package resilience provides the failure-containment primitives of the
// serving path: per-model circuit breakers that stop hammering a failing
// tier, and a concurrency limiter that sheds load instead of queueing
// without bound. Both are metered through internal/obs, so breaker states,
// transitions, rejections and queue depth are visible at GET /metrics.
//
// The pieces are deliberately independent of the LLM layer — they gate any
// named resource — and deterministic under test: the breaker takes an
// injectable clock, so open→half-open→closed walks need no real sleeping.
package resilience

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// State is a circuit breaker's position.
type State int

const (
	// Closed passes traffic and watches the failure window.
	Closed State = iota
	// Open rejects traffic until the cooldown elapses.
	Open
	// HalfOpen admits probe calls one at a time; success closes the
	// breaker, failure reopens it.
	HalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig parameterizes a Breaker (and every breaker of a
// BreakerSet). The zero value selects production-ish defaults.
type BreakerConfig struct {
	// Window is the sliding outcome window size. Defaults to 20.
	Window int
	// MinSamples is the minimum number of recorded outcomes before the
	// breaker may trip. Defaults to 8.
	MinSamples int
	// FailureThreshold trips the breaker when the window's failure
	// fraction reaches it. Defaults to 0.5.
	FailureThreshold float64
	// Cooldown is how long an open breaker rejects before probing.
	// Defaults to 250ms.
	Cooldown time.Duration
	// HalfOpenProbes is how many consecutive probe successes close a
	// half-open breaker. Defaults to 1.
	HalfOpenProbes int
	// Now is the clock; tests inject a fake one to walk transitions
	// deterministically. Nil means time.Now.
	Now func() time.Time
	// Obs receives breaker_state / breaker_transitions_total /
	// breaker_rejections_total.
	Obs *obs.Registry
	// Log receives breaker_transition lifecycle events.
	Log *obs.Logger
}

// withDefaults fills zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 250 * time.Millisecond
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a three-state circuit breaker over one named resource, driven
// by a sliding window of call outcomes. Breaker is safe for concurrent use.
type Breaker struct {
	cfg  BreakerConfig
	name string

	mu       sync.Mutex
	state    State
	window   []bool // ring of outcomes, true = failure
	idx      int    // next write position
	filled   int    // outcomes recorded (≤ len(window))
	fails    int    // failures currently in the window
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	probeOK  int  // consecutive half-open successes

	gState                          *obs.Gauge
	mToOpen, mToHalfOpen, mToClosed *obs.Counter
	mRejects                        *obs.Counter
}

// NewBreaker returns a closed breaker for the named resource.
func NewBreaker(name string, cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	b := &Breaker{
		cfg:    cfg,
		name:   name,
		window: make([]bool, cfg.Window),

		gState:      cfg.Obs.Gauge("breaker_state", "name", name),
		mToOpen:     cfg.Obs.Counter("breaker_transitions_total", "name", name, "to", "open"),
		mToHalfOpen: cfg.Obs.Counter("breaker_transitions_total", "name", name, "to", "half-open"),
		mToClosed:   cfg.Obs.Counter("breaker_transitions_total", "name", name, "to", "closed"),
		mRejects:    cfg.Obs.Counter("breaker_rejections_total", "name", name),
	}
	b.gState.Set(float64(Closed))
	return b
}

// Name returns the resource this breaker guards.
func (b *Breaker) Name() string { return b.name }

// State returns the current state (advancing open → half-open when the
// cooldown has elapsed, so observers see the effective state).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return HalfOpen
	}
	return b.state
}

// Allow reports whether a call may proceed. In half-open it admits one
// probe at a time; callers that were admitted must Record the outcome.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.mRejects.Inc()
			return false
		}
		b.transitionLocked(HalfOpen)
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			b.mRejects.Inc()
			return false
		}
		b.probing = true
		return true
	}
}

// Record feeds one call outcome back into the breaker.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.probing = false
		if !ok {
			b.openedAt = b.cfg.Now()
			b.transitionLocked(Open)
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.HalfOpenProbes {
			b.transitionLocked(Closed)
		}
	case Closed:
		if b.filled == len(b.window) {
			// Overwrite the oldest outcome.
			if b.window[b.idx] {
				b.fails--
			}
		} else {
			b.filled++
		}
		b.window[b.idx] = !ok
		if !ok {
			b.fails++
		}
		b.idx = (b.idx + 1) % len(b.window)
		if b.filled >= b.cfg.MinSamples &&
			float64(b.fails)/float64(b.filled) >= b.cfg.FailureThreshold {
			b.openedAt = b.cfg.Now()
			b.transitionLocked(Open)
		}
	case Open:
		// Late results from calls admitted before the trip carry no new
		// information; the probe cycle decides recovery.
	}
}

// transitionLocked moves to next, resetting the bookkeeping the new state
// starts from and metering the edge. Caller holds b.mu. Transitions have
// no request context (the tripping call is incidental), so the event is
// emitted uncorrelated.
func (b *Breaker) transitionLocked(next State) {
	prev := b.state
	b.state = next
	b.gState.Set(float64(next))
	b.cfg.Log.Emit(obs.Warn, "breaker_transition", "name", b.name, "from", prev.String(), "to", next.String())
	switch next {
	case Open:
		b.resetWindowLocked()
		b.probing = false
		b.probeOK = 0
		b.mToOpen.Inc()
	case HalfOpen:
		b.probeOK = 0
		b.mToHalfOpen.Inc()
	case Closed:
		b.resetWindowLocked()
		b.probing = false
		b.probeOK = 0
		b.mToClosed.Inc()
	}
}

func (b *Breaker) resetWindowLocked() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.filled, b.fails = 0, 0, 0
}

// BreakerSet is a lazily-populated family of breakers sharing one config —
// the cascade keeps one per model tier. BreakerSet is safe for concurrent
// use.
type BreakerSet struct {
	cfg BreakerConfig

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewBreakerSet returns an empty set minting breakers with cfg.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), m: make(map[string]*Breaker)}
}

// For returns the breaker for name, creating it closed on first use.
func (s *BreakerSet) For(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = NewBreaker(name, s.cfg)
		s.m[name] = b
	}
	return b
}

// Allow reports whether a call to name may proceed.
func (s *BreakerSet) Allow(name string) bool { return s.For(name).Allow() }

// Record feeds one call outcome for name back into its breaker.
func (s *BreakerSet) Record(name string, ok bool) { s.For(name).Record(ok) }

// States snapshots every breaker's effective state.
func (s *BreakerSet) States() map[string]State {
	s.mu.Lock()
	breakers := make([]*Breaker, 0, len(s.m))
	for _, b := range s.m {
		breakers = append(breakers, b)
	}
	s.mu.Unlock()
	out := make(map[string]State, len(breakers))
	for _, b := range breakers {
		out[b.Name()] = b.State()
	}
	return out
}

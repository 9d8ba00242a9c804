// Package resilience provides the failure-containment primitives of the
// serving path: per-model circuit breakers that stop hammering a failing
// tier, and a concurrency limiter that sheds load instead of queueing
// without bound. Both are metered through internal/obs, so breaker states,
// transitions, rejections and queue depth are visible at GET /metrics.
//
// The pieces are deliberately independent of the LLM layer — they gate any
// named resource. The breaker reads the clock it is given (the proxy's
// one clock, when the proxy builds it), so an open→half-open→closed walk
// on a fake clock needs no real sleeping.
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

// The breaker's settings, the ones every caller runs with.
const (
	// breakerWindow is the sliding outcome window's size.
	breakerWindow = 20
	// breakerMinSamples is how many outcomes the window holds before the
	// breaker may trip.
	breakerMinSamples = 8
	// breakerThreshold trips the breaker when the window's failure
	// fraction reaches it.
	breakerThreshold = 0.5
	// breakerCooldown is how long an open breaker rejects before it
	// admits a probe, and how long a probe may stay outstanding before it
	// is presumed lost.
	breakerCooldown = 250 * time.Millisecond
)

// BreakerConfig wires a Breaker (and every breaker of a BreakerSet) to
// its clock and sinks. The zero value is ready to use.
type BreakerConfig struct {
	// Now is the clock; nil means time.Now. The proxy passes its own, so
	// a test that drives the proxy's clock walks the transitions too.
	Now func() time.Time
	// Obs receives breaker_state / breaker_transitions_total /
	// breaker_rejections_total.
	Obs *obs.Registry
	// Log receives breaker_transition lifecycle events.
	Log *obs.Logger
}

// Breaker is a three-state circuit breaker over one named resource, driven
// by a sliding window of call outcomes. Breaker is safe for concurrent use.
//
// Every admission carries the breaker's epoch, which moves on at each
// transition: an outcome is counted only under the epoch it was admitted
// in. A call admitted while closed that returns after the trip says
// nothing about the state the breaker is in now. The probes of one
// half-open spell share its epoch, so a slow probe still decides when it
// reports, and whichever probe reports first decides for all of them.
type Breaker struct {
	now  func() time.Time
	log  *obs.Logger
	name string

	mu       sync.Mutex
	state    State
	epoch    uint64
	window   [breakerWindow]bool // ring of outcomes, true = failure
	idx      int                 // next write position
	filled   int                 // outcomes recorded (≤ breakerWindow)
	fails    int                 // failures currently in the window
	openedAt time.Time
	probeAt  time.Time // when the outstanding half-open probe was admitted

	gState                          *obs.Gauge
	mToOpen, mToHalfOpen, mToClosed *obs.Counter
	mRejects                        *obs.Counter
}

// NewBreaker returns a closed breaker for the named resource.
func NewBreaker(name string, cfg BreakerConfig) *Breaker {
	b := &Breaker{
		now:  cfg.Now,
		log:  cfg.Log,
		name: name,

		gState:      cfg.Obs.Gauge("breaker_state", "name", name),
		mToOpen:     cfg.Obs.Counter("breaker_transitions_total", "name", name, "to", "open"),
		mToHalfOpen: cfg.Obs.Counter("breaker_transitions_total", "name", name, "to", "half-open"),
		mToClosed:   cfg.Obs.Counter("breaker_transitions_total", "name", name, "to", "closed"),
		mRejects:    cfg.Obs.Counter("breaker_rejections_total", "name", name),
	}
	if b.now == nil {
		b.now = time.Now
	}
	b.gState.Set(float64(Closed))
	return b
}

// State returns the current state (advancing open → half-open when the
// cooldown has elapsed, so observers see the effective state).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.now().Sub(b.openedAt) >= breakerCooldown {
		return HalfOpen
	}
	return b.state
}

// Allow reports whether a call may proceed, and the epoch it is admitted
// under; an admitted caller hands the epoch back to Record with the
// outcome. Half-open admits one probe at a time, and a new one once the
// outstanding probe has gone a full cooldown without reporting.
func (b *Breaker) Allow() (epoch uint64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return b.epoch, true
	case Open:
		now := b.now()
		if now.Sub(b.openedAt) < breakerCooldown {
			b.mRejects.Inc()
			return 0, false
		}
		b.transitionLocked(HalfOpen)
		b.probeAt = now
		return b.epoch, true
	default: // HalfOpen
		now := b.now()
		if now.Sub(b.probeAt) < breakerCooldown {
			b.mRejects.Inc()
			return 0, false
		}
		// The probe is presumed lost: its caller has not reported. The new
		// probe shares its epoch, so a slow one that reports still counts.
		b.probeAt = now
		return b.epoch, true
	}
}

// Record feeds the outcome of a call admitted under epoch back into the
// breaker. An outcome from an earlier epoch is ignored.
func (b *Breaker) Record(epoch uint64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if epoch != b.epoch {
		return
	}
	switch b.state {
	case HalfOpen:
		if ok {
			b.transitionLocked(Closed)
			return
		}
		b.openedAt = b.now()
		b.transitionLocked(Open)
	case Closed:
		if b.filled == breakerWindow {
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
		b.idx = (b.idx + 1) % breakerWindow
		if b.filled >= breakerMinSamples && float64(b.fails)/float64(b.filled) >= breakerThreshold {
			b.openedAt = b.now()
			b.transitionLocked(Open)
		}
	}
}

// transitionLocked moves to next, resetting the bookkeeping the new state
// starts from and metering the edge. Caller holds b.mu. Transitions have
// no request context (the tripping call is incidental), so the event is
// emitted uncorrelated.
func (b *Breaker) transitionLocked(next State) {
	prev := b.state
	b.state = next
	b.epoch++
	b.gState.Set(float64(next))
	b.log.Emit(obs.Warn, "breaker_transition", "name", b.name, "from", prev.String(), "to", next.String())
	switch next {
	case Open:
		b.window, b.idx, b.filled, b.fails = [breakerWindow]bool{}, 0, 0, 0
		b.mToOpen.Inc()
	case HalfOpen:
		b.mToHalfOpen.Inc()
	case Closed:
		b.mToClosed.Inc()
	}
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
	return &BreakerSet{cfg: cfg, m: make(map[string]*Breaker)}
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

// Allow reports whether a call to name may proceed, and the epoch it is
// admitted under.
func (s *BreakerSet) Allow(name string) (epoch uint64, ok bool) { return s.For(name).Allow() }

// Record feeds the outcome of a call to name admitted under epoch back
// into its breaker.
func (s *BreakerSet) Record(name string, epoch uint64, ok bool) { s.For(name).Record(epoch, ok) }

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
		out[b.name] = b.State()
	}
	return out
}

package resilience

import (
	"context"
	"errors"
	"time"

	"repro/internal/obs"
)

// ErrOverloaded is returned by Limiter.Acquire when both the concurrency
// slots and the wait queue are full — the request is shed rather than
// queued without bound (load shedding beats collapse under overload).
var ErrOverloaded = errors.New("resilience: overloaded, request shed")

// LimiterConfig parameterizes a Limiter.
type LimiterConfig struct {
	// MaxConcurrent is the number of requests served at once; required > 0.
	MaxConcurrent int
	// MaxQueue is how many callers may wait for a slot; a request arriving
	// with the queue full is shed with ErrOverloaded. 0 sheds immediately
	// whenever every slot is busy.
	MaxQueue int
	// Obs receives limiter_inflight / limiter_queue_depth gauges and
	// limiter_admitted_total / limiter_shed_total counters.
	Obs *obs.Registry
	// Log receives limiter_shed lifecycle events.
	Log *obs.Logger
}

// Limiter is a concurrency gate with a bounded wait queue. Limiter is safe
// for concurrent use.
type Limiter struct {
	slots    chan struct{}
	queue    chan struct{} // buffered; holding a token = waiting in line
	gRunning *obs.Gauge
	gQueued  *obs.Gauge
	mAdmit   *obs.Counter
	mShed    *obs.Counter
	hWait    *obs.Histogram
	log      *obs.Logger
}

// NewLimiter builds a Limiter. It panics when MaxConcurrent <= 0 (an
// unlimited limiter is spelled "no limiter").
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.MaxConcurrent <= 0 {
		panic("resilience: limiter needs MaxConcurrent > 0")
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	return &Limiter{
		slots:    make(chan struct{}, cfg.MaxConcurrent),
		queue:    make(chan struct{}, cfg.MaxQueue),
		gRunning: cfg.Obs.Gauge("limiter_inflight"),
		gQueued:  cfg.Obs.Gauge("limiter_queue_depth"),
		mAdmit:   cfg.Obs.Counter("limiter_admitted_total"),
		mShed:    cfg.Obs.Counter("limiter_shed_total"),
		hWait:    cfg.Obs.Histogram("limiter_queue_wait_seconds", obs.LatencyBuckets),
		log:      cfg.Log,
	}
}

// Acquire takes a slot, waiting in the bounded queue when all slots are
// busy. It returns ErrOverloaded when the queue is also full, or ctx.Err()
// if the caller's context dies while queued. A nil return must be paired
// with Release.
func (l *Limiter) Acquire(ctx context.Context) error {
	select {
	case l.slots <- struct{}{}:
		l.gRunning.Add(1)
		l.mAdmit.Inc()
		return nil
	default:
	}
	// All slots busy: take a queue token or shed.
	select {
	case l.queue <- struct{}{}:
	default:
		l.mShed.Inc()
		l.log.Event(ctx, obs.Warn, "limiter_shed", "running", len(l.slots), "queued", len(l.queue))
		return ErrOverloaded
	}
	l.gQueued.Add(1)
	enq := time.Now()
	defer func() {
		<-l.queue
		l.gQueued.Add(-1)
		// Queue-wait exemplars let a fat wait bucket resolve to the trace
		// that sat in line (only queued requests observe; fast-path admits
		// never waited).
		l.hWait.ObserveWithExemplar(time.Since(enq).Seconds(), obs.SampledTraceID(ctx))
	}()
	select {
	case l.slots <- struct{}{}:
		l.gRunning.Add(1)
		l.mAdmit.Inc()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by a successful Acquire.
func (l *Limiter) Release() {
	<-l.slots
	l.gRunning.Add(-1)
}

// Running reports how many slots are currently held.
func (l *Limiter) Running() int { return len(l.slots) }

// Queued reports how many callers are currently waiting.
func (l *Limiter) Queued() int { return len(l.queue) }

package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Head sampling. A caller that cannot afford to record every request
// decides once, at the request's root, whether to keep its trace
// (Tracer.StartSampled). A kept root is Start's. An unkept root still
// carries a trace ID and a start time — replies quote the ID — but records
// nothing: StartSpan under it returns a nil child, its SetAttr and End are
// no-ops, and a Logger drops the events under it below Warn. Metrics are
// not sampled. When the request turns out to be worth a trace after all,
// Tracer.Promote publishes a fresh root for it.

// Budget admits at most a fixed number of events per second, in bursts of
// up to the same number: the generic cell rate algorithm on one atomic
// (the theoretical arrival time of the next event). A refused event costs
// one atomic load. Budget is safe for concurrent use.
type Budget struct {
	origin time.Time
	// interval is the time one event costs and limit how far ahead of now
	// the theoretical arrival time may run (the burst), both in ns; tat is
	// that time, in ns since origin.
	interval, limit int64
	tat             atomic.Int64
}

// NewBudget returns a budget of perSecond events a second with a burst of
// perSecond, full at origin: the times Admit is handed are read from the
// clock origin was. A budget of zero (or less) admits nothing.
func NewBudget(perSecond int, origin time.Time) *Budget {
	b := &Budget{origin: origin}
	if perSecond > 0 {
		b.interval = max(int64(time.Second)/int64(perSecond), 1)
		b.limit = b.interval * int64(perSecond)
	}
	return b
}

// Admit reports whether one more event fits the budget at now, and
// spends it if so. now is passed in, not read, so callers that already
// hold the time pay for no second clock read and tests can drive the
// clock.
func (b *Budget) Admit(now time.Time) bool {
	if b.limit == 0 {
		return false
	}
	t := int64(now.Sub(b.origin))
	for {
		tat := b.tat.Load()
		next := max(tat, t) + b.interval
		if next-t > b.limit {
			return false
		}
		if b.tat.CompareAndSwap(tat, next) {
			return true
		}
	}
}

// StartSampled is Start with a head-sampling decision: with keep it is
// Start; without, the root is unkept — it has a fresh trace ID and records
// nothing unless Promote publishes it. Start itself keeps recording every
// root.
func (t *Tracer) StartSampled(ctx context.Context, name string, keep bool) (context.Context, *Span) {
	if keep || t == nil {
		return t.Start(ctx, name)
	}
	s := &Span{name: name, start: time.Now(), traceID: newTraceID(), unkept: true}
	return ContextWithSpan(ctx, s), s
}

// Promote returns a root to record in place of the unkept root s: a fresh
// span with s's trace ID, name and start and no children, published to
// the ring when ended. s itself is left untouched — other goroutines may
// still be reading it. A kept (or nil) s is returned as it is.
func (t *Tracer) Promote(s *Span) *Span {
	if !s.Unkept() {
		return s
	}
	return &Span{name: s.name, start: s.start, traceID: s.traceID, tracer: t}
}

// Unkept reports whether s is an unkept root (StartSampled without keep):
// a span that records nothing. Nil and every other span report false.
func (s *Span) Unkept() bool { return s != nil && s.unkept }

// SampledTraceID is TraceIDFromContext for a trace that is recorded: ""
// under an unkept root. Exemplars take it, so every exemplar resolves to
// a trace a reader can open.
func SampledTraceID(ctx context.Context) string {
	s := SpanFromContext(ctx)
	if s.Unkept() {
		return ""
	}
	return s.TraceID()
}

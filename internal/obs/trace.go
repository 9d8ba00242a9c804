package obs

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed operation in a request's trace tree. Spans are created
// by Tracer.Start (roots) and StartSpan (children), annotated with SetAttr,
// and closed with End. All methods are nil-safe and safe for concurrent
// use, so instrumentation can be unconditional.
type Span struct {
	name    string
	start   time.Time
	traceID string // set before the span is shared; read without the lock

	mu       sync.Mutex
	duration time.Duration
	ended    bool
	attrs    []Label
	children []*Span

	// tracer is set on root spans only; End hands the finished tree to it.
	tracer *Tracer
}

// attrString renders an annotation value: ints, floats, bools and
// durations get compact forms, everything else fmt.Sprint. Shared by
// Span.SetAttr and Logger events so traces and the event log agree.
func attrString(value interface{}) string {
	switch x := value.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', 6, 64)
	case time.Duration:
		return x.String()
	default:
		return fmt.Sprint(x)
	}
}

// SetAttr records a key/value annotation. Values are rendered to strings:
// ints, floats, bools and durations get compact forms, everything else
// fmt.Sprint.
func (s *Span) SetAttr(key string, value interface{}) {
	if s == nil {
		return
	}
	v := attrString(value)
	s.mu.Lock()
	s.attrs = append(s.attrs, Label{Key: key, Value: v})
	s.mu.Unlock()
}

// End closes the span. Ending a root span publishes its finished tree to
// the tracer's ring. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.duration = time.Since(s.start)
	t := s.tracer
	s.mu.Unlock()
	if t != nil {
		t.record(s)
	}
}

// addChild attaches c under s.
func (s *Span) addChild(c *Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// TraceID returns the ID of the trace this span belongs to, or "" for
// detached spans. IDs are minted by Tracer.Start and inherited by
// children, so every span in one request's tree shares one ID — the
// join key between /debug/traces and /debug/events.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// TraceIDFromContext returns the trace ID of the span carried by ctx,
// or "" when ctx carries none.
func TraceIDFromContext(ctx context.Context) string {
	return SpanFromContext(ctx).TraceID()
}

// SpanData is the exported (JSON-ready) form of a finished span tree.
type SpanData struct {
	Name       string            `json:"name"`
	TraceID    string            `json:"trace_id,omitempty"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []SpanData        `json:"children,omitempty"`
}

// data snapshots the span tree. Safe to call on live spans (un-ended spans
// report the duration so far).
func (s *Span) data() SpanData {
	s.mu.Lock()
	d := SpanData{Name: s.name, TraceID: s.traceID, Start: s.start, DurationMS: float64(s.duration.Microseconds()) / 1000}
	if !s.ended {
		d.DurationMS = float64(time.Since(s.start).Microseconds()) / 1000
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.data())
	}
	return d
}

// spanKey carries the current span through a context.
type spanKey struct{}

// ContextWithSpan returns ctx carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan begins a child of the current span in ctx. When ctx carries no
// span the returned span is detached — fully usable but recorded nowhere —
// so library code can instrument unconditionally at negligible cost.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now()}
	if parent := SpanFromContext(ctx); parent != nil {
		s.traceID = parent.traceID
		parent.addChild(s)
	}
	return ContextWithSpan(ctx, s), s
}

// Tracer keeps a bounded ring of the most recent finished root spans.
// Tracer is safe for concurrent use.
type Tracer struct {
	mu   sync.Mutex
	ring []*Span
	next int
	n    int
}

// DefaultTraceCapacity is the ring size of tracers built with
// NewTracer(0).
const DefaultTraceCapacity = 64

// NewTracer returns a tracer retaining the last capacity root spans
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]*Span, capacity)}
}

// traceSeq mints process-unique trace IDs.
var traceSeq atomic.Uint64

// newTraceID returns a fresh process-unique trace ID ("t1", "t2", ...
// in hex). IDs only need to be unique within the in-memory rings they
// join, so a counter beats entropy.
func newTraceID() string {
	return "t" + strconv.FormatUint(traceSeq.Add(1), 16)
}

// Start begins a root span recorded into this tracer's ring when ended.
// The returned context carries the span; child spans started from it via
// StartSpan attach beneath it. Each root gets a fresh trace ID,
// inherited by its children and readable via TraceIDFromContext.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return StartSpan(ctx, name)
	}
	s := &Span{name: name, start: time.Now(), traceID: newTraceID(), tracer: t}
	return ContextWithSpan(ctx, s), s
}

// record pushes a finished root into the ring.
func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Recent returns up to n finished traces, newest first (all retained
// traces when n <= 0).
func (t *Tracer) Recent(n int) []SpanData {
	t.mu.Lock()
	spans := make([]*Span, 0, t.n)
	for i := 0; i < t.n; i++ {
		idx := (t.next - 1 - i + len(t.ring) + len(t.ring)) % len(t.ring)
		spans = append(spans, t.ring[idx])
	}
	t.mu.Unlock()
	if n > 0 && len(spans) > n {
		spans = spans[:n]
	}
	out := make([]SpanData, len(spans))
	for i, s := range spans {
		out[i] = s.data()
	}
	return out
}

// ByID returns the retained trace whose root carries the given ID.
func (t *Tracer) ByID(id string) (SpanData, bool) {
	t.mu.Lock()
	var found *Span
	for i := 0; i < t.n; i++ {
		idx := (t.next - 1 - i + len(t.ring) + len(t.ring)) % len(t.ring)
		if t.ring[idx].traceID == id {
			found = t.ring[idx]
			break
		}
	}
	t.mu.Unlock()
	if found == nil {
		return SpanData{}, false
	}
	return found.data(), true
}

// Len reports how many traces the ring currently holds.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

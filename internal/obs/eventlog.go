package obs

import (
	"context"
	"strings"
	"sync"
	"time"
)

// Level grades event severity. The zero value is Debug, so an
// unconfigured logger keeps everything and lets readers filter.
type Level int8

// Severity levels, least to most severe.
const (
	Debug Level = iota
	Info
	Warn
	Error

	numLevels = 4
)

// String returns the lowercase level name ("debug", "info", ...).
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return "unknown"
	}
}

// ParseLevel maps a level name (case-insensitive) back to its Level.
// The empty string parses as Debug so optional filters default open.
func ParseLevel(s string) (Level, bool) {
	switch strings.ToLower(s) {
	case "", "debug":
		return Debug, true
	case "info":
		return Info, true
	case "warn", "warning":
		return Warn, true
	case "error":
		return Error, true
	default:
		return Debug, false
	}
}

// Event is one structured lifecycle event, JSON-ready for the
// /debug/events endpoint. Seq orders events totally within one
// EventLog; Trace links the event to a span tree when the emitting
// context carried one.
type Event struct {
	Seq   uint64            `json:"seq"`
	Time  time.Time         `json:"time"`
	Level string            `json:"level"`
	Name  string            `json:"name"`
	Trace string            `json:"trace,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// eventRecord is the stored form; attrs stay as an ordered slice until
// export.
type eventRecord struct {
	seq   uint64
	time  time.Time
	level Level
	name  string
	trace string
	attrs []Label
}

// DefaultEventCapacity is the ring size of logs built with
// NewEventLog(0).
const DefaultEventCapacity = 4096

// EventLog is a bounded ring of recent events. Writes overwrite the
// oldest entry once full; Overwritten reports how many were lost so
// readers can tell a truncated story from a complete one. EventLog is
// safe for concurrent use.
type EventLog struct {
	mu          sync.Mutex
	ring        []eventRecord
	next        int
	n           int
	seq         uint64
	overwritten uint64
}

// NewEventLog returns a ring retaining the last capacity events
// (DefaultEventCapacity when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{ring: make([]eventRecord, capacity)}
}

// Cap returns the ring capacity.
func (l *EventLog) Cap() int { return len(l.ring) }

// Len reports how many events the ring currently holds.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Overwritten reports how many events have been evicted by wraparound
// since the log was created.
func (l *EventLog) Overwritten() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.overwritten
}

// add appends one event, evicting the oldest when full, and reports
// whether it evicted one.
func (l *EventLog) add(r eventRecord) (evicted bool) {
	l.mu.Lock()
	l.seq++
	r.seq = l.seq
	evicted = l.n == len(l.ring)
	if evicted {
		l.overwritten++
	} else {
		l.n++
	}
	l.ring[l.next] = r
	l.next = (l.next + 1) % len(l.ring)
	l.mu.Unlock()
	return evicted
}

// EventFilter selects events from an EventLog. The zero value matches
// everything the ring holds.
type EventFilter struct {
	// Trace keeps only events carrying this trace ID.
	Trace string
	// Name keeps only events with this exact name.
	Name string
	// Tenant keeps only events whose "tenant" attribute equals this
	// value (the attribute the Logger stamps from the request context).
	Tenant string
	// Min drops events below this level.
	Min Level
	// Max caps the result to the newest Max matching events (0 = all).
	Max int
}

// matches reports whether r passes the filter (Max excluded — it is a
// result cap, not a predicate).
func (f EventFilter) matches(r eventRecord) bool {
	if r.level < f.Min {
		return false
	}
	if f.Trace != "" && r.trace != f.Trace {
		return false
	}
	if f.Name != "" && r.name != f.Name {
		return false
	}
	if f.Tenant != "" {
		found := false
		for _, a := range r.attrs {
			if a.Key == "tenant" && a.Value == f.Tenant {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Events returns the retained events matching f in chronological order
// (oldest first). When f.Max truncates, the newest events win — the
// tail of a request's story is worth more than its head.
func (l *EventLog) Events(f EventFilter) []Event {
	events, _, _ := l.EventsSince(0, f)
	return events
}

// EventsSince returns the retained events with seq > since that match
// f, oldest first, plus cursor bookkeeping: next is the newest seq the
// log has ever assigned (pass it back as the next call's since), and
// missing counts events in (since, next] that wraparound already
// evicted before this read — the consumer's gap. With since == 0,
// missing equals the log's total overwritten count.
func (l *EventLog) EventsSince(since uint64, f EventFilter) (events []Event, missing, next uint64) {
	l.mu.Lock()
	recs := make([]eventRecord, 0, l.n)
	for i := 0; i < l.n; i++ {
		idx := (l.next - l.n + i + len(l.ring)) % len(l.ring)
		r := l.ring[idx]
		if r.seq <= since {
			continue
		}
		if f.matches(r) {
			recs = append(recs, r)
		}
	}
	next = l.seq
	// Oldest retained seq is seq−n+1; anything the cursor wanted below
	// that is gone regardless of filters.
	if l.n > 0 {
		if oldest := l.seq - uint64(l.n) + 1; since+1 < oldest {
			missing = oldest - 1 - since
		}
	} else if l.seq > since {
		missing = l.seq - since
	}
	l.mu.Unlock()
	if f.Max > 0 && len(recs) > f.Max {
		recs = recs[len(recs)-f.Max:]
	}
	events = make([]Event, len(recs))
	for i, r := range recs {
		e := Event{Seq: r.seq, Time: r.time, Level: r.level.String(), Name: r.name, Trace: r.trace}
		if len(r.attrs) > 0 {
			e.Attrs = make(map[string]string, len(r.attrs))
			for _, a := range r.attrs {
				e.Attrs[a.Key] = a.Value
			}
		}
		events[i] = e
	}
	return events, missing, next
}

// Logger emits leveled, trace-correlated events into an EventLog and
// counts them per level in a Registry. All methods are nil-safe (a nil
// logger drops everything) and safe for concurrent use.
type Logger struct {
	events      *EventLog
	min         Level
	byLevel     [numLevels]*Counter
	overwritten *Counter
}

// NewLogger builds a logger writing events at or above min into events,
// counting the events it records in log_events_total{level}, and the
// older events their writes evicted from the ring in
// obs_events_overwritten_total, into reg. An event a logger drops — below
// min, or below Warn under an unkept trace — is counted nowhere. With no
// ring to write into it returns the nil logger, which drops.
func NewLogger(events *EventLog, min Level, reg *Registry) *Logger {
	if events == nil {
		return nil
	}
	lg := &Logger{events: events, min: min, overwritten: reg.Counter("obs_events_overwritten_total")}
	for l := Debug; l < numLevels; l++ {
		lg.byLevel[l] = reg.Counter("log_events_total", "level", l.String())
	}
	return lg
}

// Sink returns the EventLog this logger writes into.
func (lg *Logger) Sink() *EventLog {
	if lg == nil {
		return nil
	}
	return lg.events
}

// validatedEventNames caches names that already passed CheckMetricName,
// keeping the per-event cost of the grammar check to one map load.
// Event names are call-site constants, so the cache stays small.
var validatedEventNames sync.Map

// checkEventName panics on a name outside the lowercase_snake metric
// grammar — event names share the metric charter so /debug/events and
// /metrics speak one vocabulary (and the metricname analyzer lints
// both).
func checkEventName(name string) {
	if _, ok := validatedEventNames.Load(name); ok {
		return
	}
	if err := CheckMetricName(name); err != nil {
		panic(err)
	}
	validatedEventNames.Store(name, struct{}{})
}

// Enabled reports whether Event(ctx, level, ...) would record: not on a
// nil logger, not below the logger's level, and not below Warn under an
// unkept trace. A call site whose attributes allocate (boxed numbers,
// non-constant strings) asks first, so an event nobody keeps costs
// nothing.
func (lg *Logger) Enabled(ctx context.Context, level Level) bool {
	return lg != nil && level >= lg.min && (level >= Warn || ctx == nil || !SpanFromContext(ctx).Unkept())
}

// Event emits one event correlated to the trace carried by ctx (if
// any). kv lists alternating key/value attribute pairs; values render
// like Span.SetAttr. The name must be lowercase_snake (panics
// otherwise, matching Registry semantics). When ctx carries a tenant
// identity (WithTenant), the event gains a "tenant" attribute so
// /debug/events?tenant= replays one tenant's story. Under an unkept
// trace, events below Warn are dropped; Warn and Error are always kept.
func (lg *Logger) Event(ctx context.Context, level Level, name string, kv ...interface{}) {
	if lg == nil || level < lg.min {
		return
	}
	trace := ""
	if ctx != nil {
		s := SpanFromContext(ctx)
		if level < Warn && s.Unkept() {
			return
		}
		trace = s.TraceID()
		if tenant, ok := tenantFrom(ctx); ok {
			kv = append(kv, "tenant", tenant)
		}
	}
	lg.emit(level, name, trace, kv)
}

// Emit emits one event with no trace correlation — for lifecycle
// points that have no request context, like breaker transitions and
// batch flushes.
func (lg *Logger) Emit(level Level, name string, kv ...interface{}) {
	if lg == nil || level < lg.min {
		return
	}
	lg.emit(level, name, "", kv)
}

func (lg *Logger) emit(level Level, name, trace string, kv []interface{}) {
	checkEventName(name)
	var attrs []Label
	if n := len(kv) / 2; n > 0 {
		attrs = make([]Label, n)
		for i := 0; i < n; i++ {
			k, _ := kv[2*i].(string)
			attrs[i] = Label{Key: k, Value: attrString(kv[2*i+1])}
		}
	}
	if lg.events.add(eventRecord{time: time.Now(), level: level, name: name, trace: trace, attrs: attrs}) {
		lg.overwritten.Inc()
	}
	if level >= 0 && level < numLevels {
		lg.byLevel[level].Inc()
	}
}

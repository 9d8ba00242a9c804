package obs

import (
	"context"
	"sync"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want Level
		ok   bool
	}{
		{"", Debug, true},
		{"debug", Debug, true},
		{"info", Info, true},
		{"INFO", Info, true},
		{"warn", Warn, true},
		{"warning", Warn, true},
		{"error", Error, true},
		{"fatal", Debug, false},
	}
	for _, c := range cases {
		got, ok := ParseLevel(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseLevel(%q) = (%v, %t), want (%v, %t)", c.in, got, ok, c.want, c.ok)
		}
	}
	for l, name := range map[Level]string{Debug: "debug", Info: "info", Warn: "warn", Error: "error", Level(9): "unknown"} {
		if l.String() != name {
			t.Errorf("Level(%d).String() = %q, want %q", l, l.String(), name)
		}
	}
}

func TestEventLogWraparound(t *testing.T) {
	ring := NewEventLog(4)
	lg := NewLogger(ring, Debug, NewRegistry())
	for i := 0; i < 10; i++ {
		lg.Emit(Info, "wrap_test", "i", i)
	}
	if ring.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", ring.Cap())
	}
	if ring.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", ring.Len())
	}
	if ring.Overwritten() != 6 {
		t.Fatalf("Overwritten() = %d, want 6", ring.Overwritten())
	}
	evs, _, _ := ring.EventsSince(0, EventFilter{})
	if len(evs) != 4 {
		t.Fatalf("EventsSince returned %d events, want 4", len(evs))
	}
	// Newest 4 survive, in chronological order with increasing seq.
	for i, e := range evs {
		if wantAttr := string('6' + byte(i)); e.Attrs["i"] != wantAttr {
			t.Errorf("event %d attr i = %q, want %q", i, e.Attrs["i"], wantAttr)
		}
		if i > 0 && evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("seq not increasing: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestEventLogFilters(t *testing.T) {
	ring := NewEventLog(64)
	lg := NewLogger(ring, Debug, NewRegistry())
	ctxA := ContextWithSpan(context.Background(), &Span{traceID: "ta"})
	ctxB := ContextWithSpan(context.Background(), &Span{traceID: "tb"})
	lg.Event(ctxA, Debug, "step_one")
	lg.Event(ctxA, Warn, "step_two")
	lg.Event(ctxB, Info, "step_one")
	lg.Emit(Error, "step_three")

	if got, _, _ := ring.EventsSince(0, EventFilter{Trace: "ta"}); len(got) != 2 {
		t.Errorf("trace filter: got %d events, want 2", len(got))
	}
	if got, _, _ := ring.EventsSince(0, EventFilter{Name: "step_one"}); len(got) != 2 {
		t.Errorf("name filter: got %d events, want 2", len(got))
	}
	if got, _, _ := ring.EventsSince(0, EventFilter{Min: Warn}); len(got) != 2 {
		t.Errorf("level filter: got %d events, want 2", len(got))
	}
	if got, _, _ := ring.EventsSince(0, EventFilter{Trace: "ta", Min: Warn}); len(got) != 1 {
		t.Errorf("combined filter: got %d events, want 1", len(got))
	}
	// Max keeps the newest events.
	evs, _, _ := ring.EventsSince(0, EventFilter{Max: 2})
	if len(evs) != 2 || evs[1].Name != "step_three" {
		t.Errorf("Max filter: got %v, want newest 2 ending in step_three", evs)
	}
	// Uncorrelated event has no trace.
	if evs[1].Trace != "" {
		t.Errorf("Emit produced trace %q, want empty", evs[1].Trace)
	}
}

func TestLoggerMinLevelAndCounters(t *testing.T) {
	reg := NewRegistry()
	ring := NewEventLog(16)
	lg := NewLogger(ring, Warn, reg)
	lg.Emit(Debug, "dropped_event")
	lg.Emit(Info, "dropped_event")
	lg.Emit(Warn, "kept_event")
	lg.Emit(Error, "kept_event")
	if got := ring.Len(); got != 2 {
		t.Fatalf("ring holds %d events, want 2 (min level Warn)", got)
	}
	if v := reg.Counter("log_events_total", "level", "warn").Value(); v != 1 {
		t.Errorf("log_events_total{level=warn} = %d, want 1", v)
	}
	if v := reg.Counter("log_events_total", "level", "debug").Value(); v != 0 {
		t.Errorf("log_events_total{level=debug} = %d, want 0", v)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var lg *Logger
	lg.Event(context.Background(), Error, "ignored_event") // must not panic
	lg.Emit(Error, "ignored_event")
	if lg.Sink() != nil {
		t.Error("nil logger Sink() != nil")
	}
	// The rest of the nil contract: a logger with no ring is the nil
	// logger, a nil registry is Default, a nil tracer's spans are detached.
	if NewLogger(nil, Debug, NewRegistry()) != nil {
		t.Error("NewLogger with no ring did not return the nil logger")
	}
	// Default is process-wide and outlives a run (-count=2), so the test
	// reads the change across the call, not the total.
	var reg *Registry
	before := Default.Counter("nil_registry_probe_total").Value()
	reg.Counter("nil_registry_probe_total").Inc()
	after := Default.Counter("nil_registry_probe_total").Value()
	if after-before != 1 {
		t.Errorf("nil registry counted %d into Default, want 1", after-before)
	}
	if reg.Snapshot()["nil_registry_probe_total"] != float64(after) {
		t.Error("nil registry's Snapshot is not Default's")
	}
	var tr *Tracer
	if _, sp := tr.Start(context.Background(), "detached"); sp.TraceID() != "" {
		t.Errorf("nil tracer minted trace ID %q", sp.TraceID())
	}
}

func TestLoggerRejectsBadEventName(t *testing.T) {
	lg := NewLogger(NewEventLog(4), Debug, NewRegistry())
	defer func() {
		if recover() == nil {
			t.Fatal("Emit with a non-snake name did not panic")
		}
	}()
	lg.Emit(Info, "Bad-Name")
}

func TestEventLogConcurrent(t *testing.T) {
	ring := NewEventLog(32)
	lg := NewLogger(ring, Debug, NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lg.Emit(Info, "concurrent_event", "i", i)
				ring.EventsSince(0, EventFilter{Max: 5})
			}
		}()
	}
	wg.Wait()
	if ring.Len() != 32 {
		t.Fatalf("Len() = %d, want full ring of 32", ring.Len())
	}
	if ring.Overwritten() != 8*200-32 {
		t.Fatalf("Overwritten() = %d, want %d", ring.Overwritten(), 8*200-32)
	}
}

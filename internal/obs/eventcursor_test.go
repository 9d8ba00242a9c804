package obs

import (
	"context"
	"fmt"
	"testing"
)

func TestEventsSinceCursor(t *testing.T) {
	l := NewEventLog(8)
	lg := NewLogger(l, Debug, NewRegistry())
	for i := 0; i < 5; i++ {
		lg.Emit(Info, "tick", "i", i)
	}

	// Fresh cursor sees everything, no gap.
	events, missing, next := l.EventsSince(0, EventFilter{})
	if len(events) != 5 || missing != 0 || next != 5 {
		t.Fatalf("fresh read: %d events, missing %d, next %d", len(events), missing, next)
	}

	// Resuming from the cursor yields only the new events.
	lg.Emit(Info, "tick", "i", 5)
	events, missing, next = l.EventsSince(next, EventFilter{})
	if len(events) != 1 || events[0].Seq != 6 || missing != 0 || next != 6 {
		t.Fatalf("incremental read: %+v missing %d next %d", events, missing, next)
	}

	// Caught up: empty, same cursor.
	events, missing, next = l.EventsSince(next, EventFilter{})
	if len(events) != 0 || missing != 0 || next != 6 {
		t.Fatalf("caught-up read: %d events missing %d next %d", len(events), missing, next)
	}
}

func TestEventsSinceWraparoundGap(t *testing.T) {
	l := NewEventLog(4)
	lg := NewLogger(l, Debug, NewRegistry())
	lg.Emit(Info, "tick", "i", 0)
	_, _, cursor := l.EventsSince(0, EventFilter{}) // cursor = 1

	// Ten more events blow through the 4-slot ring: seqs 2..7 are gone,
	// only 8..11 retained. The consumer at cursor 1 lost 6.
	for i := 1; i <= 10; i++ {
		lg.Emit(Info, "tick", "i", i)
	}
	events, missing, next := l.EventsSince(cursor, EventFilter{})
	if len(events) != 4 {
		t.Fatalf("retained = %d, want 4", len(events))
	}
	if events[0].Seq != 8 || events[3].Seq != 11 {
		t.Fatalf("seq range = %d..%d, want 8..11", events[0].Seq, events[3].Seq)
	}
	if missing != 6 {
		t.Fatalf("missing = %d, want 6", missing)
	}
	if next != 11 {
		t.Fatalf("next = %d, want 11", next)
	}

	// A since==0 read reports the log's total loss, matching Overwritten.
	_, missing, _ = l.EventsSince(0, EventFilter{})
	if missing != l.Overwritten() {
		t.Fatalf("missing %d != overwritten %d", missing, l.Overwritten())
	}

	// Filters compose with the cursor: gap reporting is about seq range,
	// not about how many matched.
	events, missing, _ = l.EventsSince(cursor, EventFilter{Name: "nope"})
	if len(events) != 0 || missing != 6 {
		t.Fatalf("filtered read: %d events, missing %d", len(events), missing)
	}
}

func TestEventTenantAttribute(t *testing.T) {
	l := NewEventLog(16)
	lg := NewLogger(l, Debug, NewRegistry())

	lg.Event(context.Background(), Info, "request_done", "source", "cache")
	lg.Event(WithTenant(context.Background(), "acme"), Info, "request_done", "source", "cascade")
	lg.Event(WithTenant(context.Background(), "umbrella"), Info, "request_done")

	all, _, _ := l.EventsSince(0, EventFilter{})
	if len(all) != 3 {
		t.Fatalf("events = %d, want 3", len(all))
	}
	if _, ok := all[0].Attrs["tenant"]; ok {
		t.Fatalf("untenanted event grew a tenant attr: %+v", all[0].Attrs)
	}
	if got := all[1].Attrs["tenant"]; got != "acme" {
		t.Fatalf("tenant attr = %q, want acme", got)
	}
	if got := all[1].Attrs["source"]; got != "cascade" {
		t.Fatalf("explicit attrs lost: %+v", all[1].Attrs)
	}

	// The Tenant filter replays one tenant's story.
	acme, _, _ := l.EventsSince(0, EventFilter{Tenant: "acme"})
	if len(acme) != 1 || acme[0].Attrs["source"] != "cascade" {
		t.Fatalf("tenant filter = %+v", acme)
	}
	if got, _, _ := l.EventsSince(0, EventFilter{Tenant: "ghost"}); len(got) != 0 {
		t.Fatalf("ghost tenant matched %d events", len(got))
	}
}

func TestEventsSinceMaxKeepsNewest(t *testing.T) {
	l := NewEventLog(32)
	lg := NewLogger(l, Debug, NewRegistry())
	for i := 0; i < 10; i++ {
		lg.Emit(Info, "tick", "i", fmt.Sprint(i))
	}
	events, _, _ := l.EventsSince(0, EventFilter{Max: 3})
	if len(events) != 3 || events[2].Attrs["i"] != "9" {
		t.Fatalf("max-capped read = %+v", events)
	}
}

// TestEventsSinceCursorPagesForward: a cursor reader with a page size
// pages forward through what the ring holds, skipping nothing.
func TestEventsSinceCursorPagesForward(t *testing.T) {
	l := NewEventLog(32)
	lg := NewLogger(l, Debug, NewRegistry())
	for i := 1; i <= 10; i++ {
		lg.Emit(Info, "tick", "i", i)
	}
	var got []uint64
	cursor := uint64(2)
	for page := 0; page < 10; page++ {
		events, missing, next := l.EventsSince(cursor, EventFilter{Max: 3})
		if missing != 0 {
			t.Fatalf("page from %d: missing %d, want 0", cursor, missing)
		}
		if len(events) == 0 {
			if next != cursor {
				t.Fatalf("empty page moved the cursor %d → %d", cursor, next)
			}
			break
		}
		for _, e := range events {
			got = append(got, e.Seq)
		}
		if next != events[len(events)-1].Seq {
			t.Fatalf("page from %d: next %d, want the last seq returned %d", cursor, next, events[len(events)-1].Seq)
		}
		cursor = next
	}
	want := []uint64{3, 4, 5, 6, 7, 8, 9, 10}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paged seqs = %v, want %v", got, want)
	}
}

package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBudgetBurstAndRefill(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	b := NewBudget(1000, base) // one event a millisecond, bursts of 1000
	admitted := func(now time.Time, tries int) int {
		n := 0
		for i := 0; i < tries; i++ {
			if b.Admit(now) {
				n++
			}
		}
		return n
	}
	if n := admitted(base, 1500); n != 1000 {
		t.Fatalf("a fresh budget admitted %d at one instant, want the burst of 1000", n)
	}
	if n := admitted(base.Add(time.Millisecond), 10); n != 1 {
		t.Errorf("one millisecond later %d admitted, want 1", n)
	}
	if n := admitted(base.Add(time.Millisecond+999*time.Microsecond), 10); n != 0 {
		t.Errorf("inside the next millisecond %d admitted, want 0", n)
	}
	// Idle long enough, the budget refills to its burst and no further.
	if n := admitted(base.Add(time.Hour), 5000); n != 1000 {
		t.Errorf("after an idle hour %d admitted, want the burst of 1000", n)
	}
}

func TestZeroBudgetAdmitsNothing(t *testing.T) {
	for _, rate := range []int{0, -1} {
		now := time.Now()
		b := NewBudget(rate, now)
		for i := 0; i < 100; i++ {
			if b.Admit(now.Add(time.Duration(i) * time.Hour)) {
				t.Fatalf("NewBudget(%d) admitted an event", rate)
			}
		}
	}
}

// However admits interleave, a budget never admits more than its burst
// plus its rate times the span of the clock readings it was shown.
func TestBudgetConcurrentAdmitsStayInBudget(t *testing.T) {
	const (
		rate    = 1000
		workers = 8
		calls   = 5000
		step    = 10 * time.Microsecond // each call moves the shared clock on
	)
	base := time.Now()
	b := NewBudget(rate, base)
	var clock, admitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if b.Admit(base.Add(time.Duration(clock.Add(int64(step))))) {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Duration(clock.Load() - int64(step))
	bound := rate + int64(elapsed.Seconds()*rate)
	if got := admitted.Load(); got > bound || got < rate {
		t.Errorf("admitted %d over %v, want at least the burst %d and at most %d", got, elapsed, rate, bound)
	}
}

func TestUnkeptRootRecordsNothing(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.StartSampled(context.Background(), "proxy.complete", false)
	id := root.TraceID()
	if !root.Unkept() || id == "" || TraceIDFromContext(ctx) != id {
		t.Fatalf("unkept root: Unkept %v, trace ID %q (context %q)", root.Unkept(), id, TraceIDFromContext(ctx))
	}
	if got := SampledTraceID(ctx); got != "" {
		t.Errorf("SampledTraceID under an unkept root = %q, want empty", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		cctx, child := StartSpan(ctx, "cache.lookup")
		if child != nil || cctx != ctx {
			t.Fatal("StartSpan under an unkept root made a child")
		}
		child.SetAttr("hit", true)
		child.End()
		root.SetAttr("source", "cache")
	}); n != 0 {
		t.Errorf("a child of an unkept root allocated %v times, want 0", n)
	}
	root.End()
	if tr.Len() != 0 {
		t.Errorf("an unkept root was recorded")
	}

	kctx, kept := tr.StartSampled(context.Background(), "proxy.complete", true)
	if kept.Unkept() || SampledTraceID(kctx) != kept.TraceID() {
		t.Errorf("a kept root is unkept or hides its trace ID from exemplars")
	}
}

func TestPromotePublishesAFreshRoot(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.StartSampled(context.Background(), "proxy.complete", false)
	StartSpan(ctx, "cache.lookup")
	p := tr.Promote(root)
	if p == root || p.Unkept() || !root.Unkept() {
		t.Fatalf("Promote returned the unkept root, or changed it")
	}
	p.SetAttr("source", "error")
	p.End()
	got, ok := tr.ByID(root.TraceID())
	if !ok || got.Name != "proxy.complete" || !got.Start.Equal(root.start) || got.Attrs["source"] != "error" || len(got.Children) != 0 {
		t.Errorf("promoted trace = %+v (found %v), want the root's name, start and ID with its own attributes and no children", got, ok)
	}
	if _, kept := tr.StartSampled(context.Background(), "x", true); tr.Promote(kept) != kept {
		t.Errorf("Promote of a kept root returned another span")
	}
}

func TestLoggerDropsBelowWarnUnderUnkeptTrace(t *testing.T) {
	reg := NewRegistry()
	lg := NewLogger(NewEventLog(8), Debug, reg)
	ctx, root := NewTracer(4).StartSampled(context.Background(), "proxy.complete", false)
	for l := Debug; l < numLevels; l++ {
		if got, want := lg.Enabled(ctx, l), l >= Warn; got != want {
			t.Errorf("Enabled(unkept, %s) = %v, want %v", l, got, want)
		}
		lg.Event(ctx, l, "probe_event")
	}
	events, _, _ := lg.Sink().EventsSince(0, EventFilter{})
	if len(events) != 2 || events[0].Level != "warn" || events[1].Level != "error" || events[0].Trace != root.TraceID() {
		t.Errorf("events under an unkept trace = %+v, want the warn and the error, with its trace ID", events)
	}
	snap := reg.Snapshot()
	if snap[`log_events_total{level="debug"}`] != 0 || snap[`log_events_total{level="info"}`] != 0 || snap[`log_events_total{level="warn"}`] != 1 {
		t.Errorf("log_events_total counts dropped events: %v", snap)
	}
	if !lg.Enabled(context.Background(), Debug) || !lg.Enabled(nil, Debug) {
		t.Errorf("Enabled is false outside any trace")
	}
}

func TestLoggerCountsOverwrites(t *testing.T) {
	reg := NewRegistry()
	lg := NewLogger(NewEventLog(2), Debug, reg)
	for i := 0; i < 5; i++ {
		lg.Emit(Info, "probe_event")
	}
	if got, want := reg.Snapshot()["obs_events_overwritten_total"], float64(lg.Sink().Overwritten()); got != want || want != 3 {
		t.Errorf("obs_events_overwritten_total = %v, the ring overwrote %v (want 3)", got, want)
	}
}

package obs

import (
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestGoRunsFunction(t *testing.T) {
	done := make(chan struct{})
	Go(NewRegistry(), "unit", func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("spawned function never ran")
	}
}

func TestGoRecoversPanicAndCounts(t *testing.T) {
	reg := NewRegistry()
	Go(reg, "boom", func() { panic("kaboom") })

	c := reg.Counter("goroutine_panics_total", "task", "boom")
	deadline := time.Now().Add(2 * time.Second)
	for c.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("panic was not recovered and counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGoRunsDefersBeforeRecovery(t *testing.T) {
	reg := NewRegistry()
	cleaned := make(chan struct{})
	Go(reg, "cleanup", func() {
		defer close(cleaned) // must run during the unwind
		panic("kaboom")
	})
	select {
	case <-cleaned:
	case <-time.After(2 * time.Second):
		t.Fatal("deferred cleanup did not run during panic unwind")
	}
}

func TestGoNilRegistryFallsBackToDefault(t *testing.T) {
	done := make(chan struct{})
	Go(nil, "default_reg", func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("spawned function never ran")
	}
}

func TestCheckMetricName(t *testing.T) {
	for _, ok := range []string{"requests_total", "sched_queue_depth", "x", "a1_b2"} {
		if err := CheckMetricName(ok); err != nil {
			t.Errorf("CheckMetricName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "BadName", "1starts_with_digit", "has-dash", "has.dot", "has space", "_leading"} {
		if err := CheckMetricName(bad); err == nil {
			t.Errorf("CheckMetricName(%q) = nil, want error", bad)
		}
	}
}

func TestRegistryRejectsIllegalName(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("registering an illegal metric name did not panic")
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "invalid metric name") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	NewRegistry().Counter("Not-A-Valid-Name")
}

func TestRegistryAcceptsLegalName(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("legal_snake_case").Inc()
	reg.Gauge("another_legal_name").Set(1)
	reg.Histogram("latency_seconds", LatencyBuckets).Observe(0.1)
}

// TestGoStartsOnAWorkingStack pins that a spawned function runs on a
// stack that already holds a deep call chain: a local's address is the
// same after ten calls with 1 KB frames each, so the stack never moved.
func TestGoStartsOnAWorkingStack(t *testing.T) {
	moved := make(chan bool, 1)
	Go(NewRegistry(), "stack", func() {
		var local int
		before := uintptr(unsafe.Pointer(&local))
		descend(10, &local)
		moved <- uintptr(unsafe.Pointer(&local)) != before
	})
	if <-moved {
		t.Fatal("the stack moved under ten 1 KB frames: Go did not start fn on a grown stack")
	}
}

// descend calls itself n deep, each call on a 1 KB frame that a read at
// a run-time index keeps alive.
//
//go:noinline
func descend(n int, p *int) {
	var frame [1 << 10]byte
	frame[n] = byte(n)
	if n > 0 {
		descend(n-1, p)
	}
	*p += int(frame[*p&(len(frame)-1)])
}

package obs

import (
	"runtime"
	"sync"
	"time"
)

// DefaultRuntimeInterval is the sampling period for collectors started
// with StartRuntimeCollector(reg, 0).
const DefaultRuntimeInterval = 5 * time.Second

// GCPauseBuckets covers stop-the-world GC pauses, in seconds.
var GCPauseBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.1}

// runtimeCollector samples Go runtime health into a registry.
type runtimeCollector struct {
	gGoroutines *Gauge
	gHeapAlloc  *Gauge
	gHeapSys    *Gauge
	gHeapObjs   *Gauge
	gNextGC     *Gauge
	gGCCPU      *Gauge
	mGCCycles   *Counter
	hGCPause    *Histogram

	lastNumGC uint32
}

// StartRuntimeCollector begins sampling runtime health — goroutine
// count, heap and GC stats, and per-cycle GC pause durations — into reg
// every interval (DefaultRuntimeInterval when interval <= 0). The first
// sample is taken synchronously so metrics exist before the first tick.
// The returned stop function halts the sampler and is idempotent.
func StartRuntimeCollector(reg *Registry, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultRuntimeInterval
	}
	c := &runtimeCollector{
		gGoroutines: reg.Gauge("go_goroutines"),
		gHeapAlloc:  reg.Gauge("go_heap_alloc_bytes"),
		gHeapSys:    reg.Gauge("go_heap_sys_bytes"),
		gHeapObjs:   reg.Gauge("go_heap_objects"),
		gNextGC:     reg.Gauge("go_next_gc_bytes"),
		gGCCPU:      reg.Gauge("go_gc_cpu_fraction"),
		mGCCycles:   reg.Counter("go_gc_cycles_total"),
		hGCPause:    reg.Histogram("go_gc_pause_seconds", GCPauseBuckets),
	}
	// Baseline NumGC without observing pauses: cycles before the
	// collector started are not its story to tell.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.lastNumGC = ms.NumGC
	c.sample()

	done := make(chan struct{})
	Go(reg, "runtime_collector", func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.sample()
			case <-done:
				return
			}
		}
	})
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// sample reads runtime state into the metric handles. ReadMemStats
// stops the world briefly, so this runs on the sampling interval, never
// per request.
func (c *runtimeCollector) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gGoroutines.Set(float64(runtime.NumGoroutine()))
	c.gHeapAlloc.Set(float64(ms.HeapAlloc))
	c.gHeapSys.Set(float64(ms.HeapSys))
	c.gHeapObjs.Set(float64(ms.HeapObjects))
	c.gNextGC.Set(float64(ms.NextGC))
	c.gGCCPU.Set(ms.GCCPUFraction)

	if ms.NumGC > c.lastNumGC {
		c.mGCCycles.Add(int64(ms.NumGC - c.lastNumGC))
		// PauseNs is a ring of the last 256 pause durations; replay only
		// the cycles since the previous sample (capped at ring size).
		first := c.lastNumGC + 1
		if ms.NumGC > 255 && first < ms.NumGC-255 {
			first = ms.NumGC - 255
		}
		for i := first; i <= ms.NumGC; i++ {
			c.hGCPause.Observe(float64(ms.PauseNs[(i+255)%256]) / 1e9)
		}
		c.lastNumGC = ms.NumGC
	}
}

// Package obs is the serving stack's observability substrate: a lock-cheap
// metrics registry (counters, gauges, fixed-bucket histograms with
// Prometheus-text and JSON exposition) and request-scoped tracing (a
// context-carried span tree with a bounded in-memory ring of recent
// traces). Every serving-path package — the model family, the cascade, the
// semantic cache, the query optimizer and the proxy — records into a
// Registry and emits spans, so cascade thresholds and cache policies can be
// tuned against measurements instead of guesses.
//
// Hot-path cost is one atomic add per counter update; registries hand out
// metric handles that instrumented code resolves once and keeps.
//
// What an unset sink means is decided here and nowhere else, so the Obs,
// Log and Tracer fields of every instrumented package are used as given:
//
//   - a nil *Registry is Default, the process-wide registry — every method
//     works on a nil receiver, so a stack built with no wiring is still
//     metered;
//   - a nil *Logger drops every event (NewLogger returns it when given no
//     ring to write into);
//   - a nil *Tracer starts detached spans: usable, recorded nowhere.
//
// There is no process-wide event or trace ring; whoever serves them
// (the proxy) owns them. make lint rejects obs.Default named by a
// non-test file under internal/ outside this package.
package obs

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing int64 metric. The zero value is
// unusable; obtain counters from a Registry. All methods are safe for
// concurrent use.
type Counter struct {
	labels []Label
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down. Obtain gauges from a
// Registry. All methods are safe for concurrent use.
type Gauge struct {
	labels []Label
	bits   atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric (cumulative buckets on
// exposition, Prometheus-style). Obtain histograms from a Registry. All
// methods are safe for concurrent use.
type Histogram struct {
	labels  []Label
	buckets []float64 // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	// exemplars holds one slot per bucket (+Inf last), populated by
	// ObserveWithExemplar; nil on histograms built outside a Registry.
	exemplars exemplarStore
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bound >= v, or len (the +Inf bucket)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding that rank — the standard
// fixed-bucket estimate, exact only at bucket bounds. Samples landing
// in the +Inf bucket clamp to the last finite bound. Returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	cum := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
		cum[i] = total
	}
	return quantileFromCum(h.buckets, cum, q)
}

// quantileFromCum estimates a quantile from cumulative bucket counts
// (the exposition form: one count per upper bound, +Inf last).
func quantileFromCum(bounds []float64, cum []int64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	total := cum[len(cum)-1]
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	i := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= rank })
	if i >= len(bounds) {
		// +Inf bucket: the best defensible point estimate is the largest
		// finite bound (0 when the histogram has no finite buckets at all).
		if len(bounds) == 0 {
			return 0
		}
		return bounds[len(bounds)-1]
	}
	lower := 0.0
	if i > 0 {
		lower = bounds[i-1]
	}
	var prev int64
	if i > 0 {
		prev = cum[i-1]
	}
	inBucket := cum[i] - prev
	if inBucket <= 0 {
		return bounds[i]
	}
	frac := (rank - float64(prev)) / float64(inBucket)
	return lower + (bounds[i]-lower)*frac
}

// Default bucket layouts shared by the instrumented packages.
var (
	// LatencyBuckets covers sub-millisecond in-process serving up through
	// multi-second simulated model calls, in seconds.
	LatencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// CostBuckets covers per-call spend in micro-dollars.
	CostBuckets = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 100000}
	// SimilarityBuckets covers semantic-cache hit similarities.
	SimilarityBuckets = []float64{0.80, 0.85, 0.90, 0.925, 0.95, 0.97, 0.98, 0.99, 0.995, 1}
)

// formatValue renders a float without trailing noise ("3", "0.25").
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

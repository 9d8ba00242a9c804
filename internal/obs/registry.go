package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and hands out metric handles. The fast
// path (re-resolving an existing metric) takes two read locks and no
// allocation; instrumented code should still resolve handles once and keep
// them. Registry is safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// Default is the process-wide registry, and what a nil *Registry means:
// every method resolves a nil receiver to it, so a component built without
// an explicit registry (the bench harness's experiments) is still observed,
// and no constructor outside this package spells the fallback.
var Default = NewRegistry()

type family struct {
	name    string
	typ     string // "counter" | "gauge" | "histogram"
	buckets []float64

	mu      sync.RWMutex
	metrics map[string]interface{} // label key -> *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for name with the given label pairs
// ("key", "value", ...), creating it on first use. Registering the same
// name as a different metric type panics (a programming error).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	f := r.familyFor(name, "counter", nil)
	key, lbls := labelKey(labels)
	if m, ok := f.lookup(key); ok {
		return m.(*Counter)
	}
	m, _ := f.create(key, &Counter{labels: lbls})
	return m.(*Counter)
}

// Gauge returns the gauge for name with the given label pairs, creating it
// on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	f := r.familyFor(name, "gauge", nil)
	key, lbls := labelKey(labels)
	if m, ok := f.lookup(key); ok {
		return m.(*Gauge)
	}
	m, _ := f.create(key, &Gauge{labels: lbls})
	return m.(*Gauge)
}

// Histogram returns the histogram for name with the given bucket upper
// bounds (ascending; +Inf implicit) and label pairs, creating it on first
// use. The first registration of a family fixes its buckets.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	f := r.familyFor(name, "histogram", buckets)
	key, lbls := labelKey(labels)
	if m, ok := f.lookup(key); ok {
		return m.(*Histogram)
	}
	h := &Histogram{labels: lbls, buckets: f.buckets, counts: make([]atomic.Int64, len(f.buckets)+1), exemplars: newExemplarStore(f.buckets)}
	m, _ := f.create(key, h)
	return m.(*Histogram)
}

// metricNameRE is the charter for metric family names: lowercase_snake,
// starting with a letter. Prometheus-compatible, grep-able, and stable —
// a name built with fmt.Sprintf would silently fork a family per request.
// The metricname analyzer (internal/analysis/metricname) enforces this on
// literal call sites at lint time; the runtime guard below backstops
// names the analyzer cannot resolve (computed or cross-package).
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// CheckMetricName reports whether name is a legal metric family name:
// lowercase_snake, starting with a letter.
func CheckMetricName(name string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("obs: invalid metric name %q: must match %s (lowercase_snake)", name, metricNameRE)
	}
	return nil
}

func (r *Registry) familyFor(name, typ string, buckets []float64) *family {
	if r == nil {
		r = Default
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		// Validate on the creation slow path only: an illegal name can never
		// reach an existing family, because creating it would have panicked.
		if err := CheckMetricName(name); err != nil {
			panic(err)
		}
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			b := buckets
			if typ == "histogram" && len(b) == 0 {
				b = LatencyBuckets
			}
			f = &family{name: name, typ: typ, buckets: b, metrics: make(map[string]interface{})}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

func (f *family) lookup(key string) (interface{}, bool) {
	f.mu.RLock()
	m, ok := f.metrics[key]
	f.mu.RUnlock()
	return m, ok
}

// create inserts fresh under the write lock, returning the winner if a
// concurrent caller got there first.
func (f *family) create(key string, fresh interface{}) (interface{}, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.metrics[key]; ok {
		return m, false
	}
	f.metrics[key] = fresh
	return fresh, true
}

// labelKey canonicalizes variadic ("k","v") pairs: sorted by key, joined
// with unprintable separators. Odd trailing values are dropped.
func labelKey(kv []string) (string, []Label) {
	n := len(kv) / 2
	if n == 0 {
		return "", nil
	}
	lbls := make([]Label, n)
	for i := 0; i < n; i++ {
		lbls[i] = Label{Key: kv[2*i], Value: kv[2*i+1]}
	}
	sort.Slice(lbls, func(i, j int) bool { return lbls[i].Key < lbls[j].Key })
	var b strings.Builder
	for _, l := range lbls {
		b.WriteString(l.Key)
		b.WriteByte(0x1f)
		b.WriteString(l.Value)
		b.WriteByte(0x1e)
	}
	return b.String(), lbls
}

// --- exposition ---

// histPoint is a histogram's exported state. Quantiles are bucket
// estimates computed at export time — they live only in the exposition
// (not in Snapshot, whose entries must stay additive for Delta).
type histPoint struct {
	Buckets   []int64            `json:"buckets"` // cumulative counts per upper bound, +Inf last
	Count     int64              `json:"count"`
	Sum       float64            `json:"sum"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"` // p50/p95/p99 estimates
	// Exemplars maps bucket upper bound → the most recent trace-bearing
	// observation in that bucket (JSON exposition only; the Prometheus
	// text format predates exemplars).
	Exemplars map[string]Exemplar `json:"exemplars,omitempty"`
}

// exportQuantiles are the percentile estimates attached to every
// exported histogram point.
var exportQuantiles = map[string]float64{"p50": 0.50, "p95": 0.95, "p99": 0.99}

type point struct {
	labels []Label
	value  float64    // counters and gauges
	hist   *histPoint // histograms
}

type familyExport struct {
	name    string
	typ     string
	buckets []float64
	points  []point
}

// export walks the registry into a deterministic (sorted) snapshot.
func (r *Registry) export() []familyExport {
	if r == nil {
		r = Default
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]familyExport, 0, len(fams))
	for _, f := range fams {
		fe := familyExport{name: f.name, typ: f.typ, buckets: f.buckets}
		f.mu.RLock()
		keys := make([]string, 0, len(f.metrics))
		for k := range f.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch m := f.metrics[k].(type) {
			case *Counter:
				fe.points = append(fe.points, point{labels: m.labels, value: float64(m.Value())})
			case *Gauge:
				fe.points = append(fe.points, point{labels: m.labels, value: m.Value()})
			case *Histogram:
				hp := &histPoint{Count: m.Count(), Sum: m.Sum(), Buckets: make([]int64, len(m.counts))}
				var cum int64
				for i := range m.counts {
					cum += m.counts[i].Load()
					hp.Buckets[i] = cum
				}
				if hp.Buckets[len(hp.Buckets)-1] > 0 {
					hp.Quantiles = make(map[string]float64, len(exportQuantiles))
					for name, q := range exportQuantiles {
						hp.Quantiles[name] = quantileFromCum(f.buckets, hp.Buckets, q)
					}
				}
				hp.Exemplars = m.Exemplars()
				fe.points = append(fe.points, point{labels: m.labels, hist: hp})
			}
		}
		f.mu.RUnlock()
		out = append(out, fe)
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (text/plain; version=0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fe := range r.export() {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fe.name, fe.typ); err != nil {
			return err
		}
		for _, p := range fe.points {
			if fe.typ != "histogram" {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", fe.name, promLabels(p.labels, "", ""), formatValue(p.value)); err != nil {
					return err
				}
				continue
			}
			for i, cum := range p.hist.Buckets {
				le := "+Inf"
				if i < len(fe.buckets) {
					le = formatValue(fe.buckets[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fe.name, promLabels(p.labels, "le", le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
				fe.name, promLabels(p.labels, "", ""), formatValue(p.hist.Sum),
				fe.name, promLabels(p.labels, "", ""), p.hist.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// promLabels renders {k="v",...}, appending an extra pair when extraK is
// non-empty, or "" when there are no labels at all.
func promLabels(labels []Label, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extraK != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraK, extraV)
	}
	b.WriteByte('}')
	return b.String()
}

// jsonPoint is one metric in the JSON exposition.
type jsonPoint struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *float64          `json:"value,omitempty"`
	Hist   *histPoint        `json:"histogram,omitempty"`
}

// jsonFamily is one family in the JSON exposition.
type jsonFamily struct {
	Type    string      `json:"type"`
	Buckets []float64   `json:"buckets,omitempty"`
	Points  []jsonPoint `json:"points"`
}

// WriteJSON writes the registry as a JSON object keyed by family name.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]jsonFamily)
	for _, fe := range r.export() {
		jf := jsonFamily{Type: fe.typ}
		if fe.typ == "histogram" {
			jf.Buckets = fe.buckets
		}
		for _, p := range fe.points {
			jp := jsonPoint{}
			if len(p.labels) > 0 {
				jp.Labels = make(map[string]string, len(p.labels))
				for _, l := range p.labels {
					jp.Labels[l.Key] = l.Value
				}
			}
			if p.hist != nil {
				jp.Hist = p.hist
			} else {
				v := p.value
				jp.Value = &v
			}
			jf.Points = append(jf.Points, jp)
		}
		out[fe.name] = jf
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Snapshot is a flat point-in-time view of a registry: "name{k=\"v\"}" →
// value. Histograms contribute name_count and name_sum entries.
type Snapshot map[string]float64

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := make(Snapshot)
	for _, fe := range r.export() {
		for _, p := range fe.points {
			base := fe.name + promLabels(p.labels, "", "")
			if p.hist != nil {
				s[fe.name+"_count"+promLabels(p.labels, "", "")] = float64(p.hist.Count)
				s[fe.name+"_sum"+promLabels(p.labels, "", "")] = p.hist.Sum
			} else {
				s[base] = p.value
			}
		}
	}
	return s
}

// Delta returns s − prev, keeping only entries that changed (new entries
// count in full).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := make(Snapshot)
	for k, v := range s {
		if dv := v - prev[k]; dv != 0 {
			d[k] = dv
		}
	}
	return d
}

// Summary renders the snapshot as sorted "name value" lines, each prefixed
// with indent — the llmdm-bench -telemetry output.
func (s Snapshot) Summary(indent string) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s%s %s\n", indent, k, formatValue(s[k]))
	}
	return b.String()
}

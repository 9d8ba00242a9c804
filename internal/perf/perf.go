// Package perf is the repository's recorded performance trajectory: a
// fixed suite of micro-benchmarks over the serving path (proxy,
// scheduler, semantic cache) and its kernels (embedding, tokenizer,
// vector search), run via testing.Benchmark and emitted as
// schema-stable JSON artifacts (BENCH_serving.json, BENCH_kernels.json)
// so every PR's perf is diffable against the one before it.
//
// The artifacts are written by `llmdm-bench -bench-json` (see `make
// bench-json`) and compared by `llmdm-bench -bench-compare old new`,
// which exits nonzero on large ns/op regressions — CI runs the
// comparator in warn-only mode, a release gate would not.
//
//llmdm:bench the suite times what callers run; an option only it sets is an option no caller runs
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// Schema identifies the artifact layout; bump it when field meanings
// change so comparators refuse cross-schema diffs instead of lying.
const Schema = "llmdm-bench/v1"

// Areas of the suite, one artifact per area.
const (
	AreaServing = "serving"
	AreaKernels = "kernels"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra carries what the case reported with b.ReportMetric, keyed by
	// unit ("flushes/op"); absent for a case that reports nothing.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is one area's full artifact.
type Report struct {
	Schema     string             `json:"schema"`
	Area       string             `json:"area"`
	Go         string             `json:"go"`
	Benchmarks []Result           `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

// Spec is one suite entry: a named benchmark body.
type Spec struct {
	Name  string
	Bench func(b *testing.B)
}

// Run executes specs through testing.Benchmark and assembles a report
// (benchmarks sorted by name for a stable artifact diff).
func Run(area string, specs []Spec) Report {
	rep := Report{Schema: Schema, Area: area, Go: runtime.Version()}
	for _, s := range specs {
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			s.Bench(b)
		})
		r := Result{
			Name:        s.Name,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			BytesPerOp:  br.AllocedBytesPerOp(),
			AllocsPerOp: br.AllocsPerOp(),
			Extra:       br.Extra,
		}
		if r.NsPerOp > 0 {
			r.OpsPerSec = 1e9 / r.NsPerOp
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool { return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name })
	return rep
}

// FileName returns the artifact file name for an area
// ("BENCH_serving.json").
func FileName(area string) string { return "BENCH_" + area + ".json" }

// WriteReport writes rep to dir/BENCH_<area>.json, indented with a
// trailing newline so the artifact diffs cleanly under git.
func WriteReport(dir string, rep Report) (string, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(rep.Area))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads an artifact and validates its schema.
func ReadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("perf: %s: %w", path, err)
	}
	if rep.Schema != Schema {
		return Report{}, fmt.Errorf("perf: %s: schema %q, want %q", path, rep.Schema, Schema)
	}
	return rep, nil
}

// Regression is one comparator finding.
type Regression struct {
	Benchmark string  `json:"benchmark"`
	Metric    string  `json:"metric"`
	Old       float64 `json:"old"`
	New       float64 `json:"new"`
	Ratio     float64 `json:"ratio"`
}

// String renders the finding for terminal output.
func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%.2fx)", r.Benchmark, r.Metric, r.Old, r.New, r.Ratio)
}

// Compare reports the regressions from old to new: any benchmark whose
// ns/op grew by more than maxRatio, any benchmark that disappeared, and
// any derived metric (higher-is-better, e.g. the scheduler throughput
// win) that shrank by more than the same factor. Micro-benchmarks on
// shared CI hardware are noisy, so maxRatio should be generous (2.0+)
// — this catches order-of-magnitude mistakes, not percent drift.
func Compare(old, new Report, maxRatio float64) []Regression {
	if maxRatio <= 1 {
		maxRatio = 2
	}
	var regs []Regression
	newBy := make(map[string]Result, len(new.Benchmarks))
	for _, r := range new.Benchmarks {
		newBy[r.Name] = r
	}
	for _, o := range old.Benchmarks {
		n, ok := newBy[o.Name]
		if !ok {
			regs = append(regs, Regression{Benchmark: o.Name, Metric: "missing", Old: o.NsPerOp})
			continue
		}
		if o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*maxRatio {
			regs = append(regs, Regression{
				Benchmark: o.Name, Metric: "ns_per_op",
				Old: o.NsPerOp, New: n.NsPerOp, Ratio: n.NsPerOp / o.NsPerOp,
			})
		}
	}
	for name, ov := range old.Derived {
		nv, ok := new.Derived[name]
		if !ok {
			regs = append(regs, Regression{Benchmark: name, Metric: "missing_derived", Old: ov})
			continue
		}
		if ov > 0 && nv < ov/maxRatio {
			regs = append(regs, Regression{
				Benchmark: name, Metric: "derived",
				Old: ov, New: nv, Ratio: nv / ov,
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Benchmark < regs[j].Benchmark })
	return regs
}

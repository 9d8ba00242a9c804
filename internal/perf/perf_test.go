package perf

import (
	"path/filepath"
	"testing"
)

func trivialSpecs() []Spec {
	return []Spec{
		{Name: "z_second", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = i * i
			}
		}},
		{Name: "a_first", Bench: func(b *testing.B) {
			s := 0
			for i := 0; i < b.N; i++ {
				s += i
			}
			_ = s
			b.ReportMetric(2, "flushes/op")
		}},
	}
}

func TestRunProducesStableSchema(t *testing.T) {
	rep := Run(AreaKernels, trivialSpecs())
	if rep.Schema != Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, Schema)
	}
	if rep.Area != AreaKernels || rep.Go == "" {
		t.Errorf("report header = %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2", len(rep.Benchmarks))
	}
	// Sorted by name regardless of spec order.
	if rep.Benchmarks[0].Name != "a_first" || rep.Benchmarks[1].Name != "z_second" {
		t.Errorf("order = %s, %s", rep.Benchmarks[0].Name, rep.Benchmarks[1].Name)
	}
	// What a case reports beside the built-in measurements rides along.
	if got := rep.Benchmarks[0].Extra["flushes/op"]; got != 2 || len(rep.Benchmarks[1].Extra) != 0 {
		t.Errorf("extra metrics = %v and %v, want flushes/op 2 and none", rep.Benchmarks[0].Extra, rep.Benchmarks[1].Extra)
	}
	for _, r := range rep.Benchmarks {
		if r.Iterations <= 0 || r.NsPerOp <= 0 || r.OpsPerSec <= 0 {
			t.Errorf("%s measured %+v, want positive iterations/ns/ops", r.Name, r)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "out") // WriteReport creates it
	rep := Report{
		Schema: Schema, Area: AreaServing, Go: "go1.22",
		Benchmarks: []Result{{Name: "x", Iterations: 10, NsPerOp: 100, OpsPerSec: 1e7}},
		Derived:    map[string]float64{"sched_throughput_win": 3.5},
	}
	path, err := WriteReport(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_serving.json" {
		t.Errorf("artifact name = %s", filepath.Base(path))
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Area != rep.Area || len(got.Benchmarks) != 1 || got.Derived["sched_throughput_win"] != 3.5 {
		t.Errorf("round trip = %+v", got)
	}

	// A wrong schema is refused.
	bad := rep
	bad.Schema = "other/v9"
	badPath, err := WriteReport(t.TempDir(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(badPath); err == nil {
		t.Error("ReadReport accepted a foreign schema")
	}
	if _, err := ReadReport(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("ReadReport accepted a missing file")
	}
}

func TestCompare(t *testing.T) {
	old := Report{
		Schema: Schema, Area: AreaServing,
		Benchmarks: []Result{
			{Name: "steady", NsPerOp: 100},
			{Name: "regressed", NsPerOp: 100},
			{Name: "gone", NsPerOp: 100},
		},
		Derived: map[string]float64{"win": 4.0, "lost_metric": 2.0},
	}
	new := Report{
		Schema: Schema, Area: AreaServing,
		Benchmarks: []Result{
			{Name: "steady", NsPerOp: 150},    // 1.5x: under the 2x bar
			{Name: "regressed", NsPerOp: 500}, // 5x: flagged
			{Name: "extra", NsPerOp: 1},       // new benchmarks are fine
		},
		Derived: map[string]float64{"win": 1.0}, // 4x shrink: flagged
	}
	regs := Compare(old, new, 2.0)
	byKey := map[string]Regression{}
	for _, r := range regs {
		byKey[r.Benchmark+"/"+r.Metric] = r
	}
	if len(regs) != 4 {
		t.Fatalf("regressions = %v, want 4", regs)
	}
	if r := byKey["regressed/ns_per_op"]; r.Ratio != 5 {
		t.Errorf("regressed finding = %+v", r)
	}
	if _, ok := byKey["gone/missing"]; !ok {
		t.Errorf("missing benchmark not flagged: %v", regs)
	}
	if r := byKey["win/derived"]; r.Old != 4.0 || r.New != 1.0 {
		t.Errorf("derived finding = %+v", r)
	}
	if _, ok := byKey["lost_metric/missing_derived"]; !ok {
		t.Errorf("missing derived metric not flagged: %v", regs)
	}
	if _, ok := byKey["steady/ns_per_op"]; ok {
		t.Error("1.5x drift flagged at a 2x bar")
	}

	// A generous bar clears the 1.5x and keeps the 5x.
	if regs := Compare(old, new, 4.9); len(regs) != 3 {
		t.Errorf("4.9x bar regressions = %v, want 3 (regressed + gone + lost_metric)", regs)
	}
	// maxRatio <= 1 falls back to 2x instead of flagging everything.
	if regs := Compare(old, old, 0); len(regs) != 0 {
		t.Errorf("self-compare with ratio 0 = %v, want none", regs)
	}
	// Regression strings render for terminal output.
	if s := byKey["regressed/ns_per_op"].String(); s == "" {
		t.Error("empty regression string")
	}
}

package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/suite"
)

// tree loads every package in the module and builds the shared
// interprocedural program over them — the same shape cmd/llmdm-lint
// runs, so cross-package summaries (lockorder edges, goleak witnesses,
// reslifecycle creators) are in scope. Type-checking the module is the
// expensive part of this binary, so the tests share one typed Program.
var tree = sync.OnceValues(func() (*analysis.Program, error) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		return nil, err
	}
	pkgs, err := analysis.Load(root, []string{"./..."})
	if err != nil {
		return nil, err
	}
	return analysis.BuildProgram(pkgs), nil
})

func loadTree(t *testing.T) ([]*analysis.Package, *analysis.Program) {
	t.Helper()
	prog, err := tree()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(prog.Pkgs))
	}
	return prog.Pkgs, prog
}

// TestTreeHoldsItsInvariants is the in-tree enforcement test: the full
// eight-analyzer suite over the whole module must be clean. It is the
// same check `make lint` and CI run via cmd/llmdm-lint, wired into
// `go test` so a violation fails the ordinary test run too.
func TestTreeHoldsItsInvariants(t *testing.T) {
	pkgs, prog := loadTree(t)
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzersProg(prog, pkg, suite.All(), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d.String())
		}
	}
}

// TestEveryWaiverIsLoadBearing audits the tree's //llmdm: annotations:
// each must carry a reason, and each must resurface as a finding when
// the suite runs with IgnoreAnnotations — a waiver that waives nothing
// is stale and has to go.
func TestEveryWaiverIsLoadBearing(t *testing.T) {
	pkgs, prog := loadTree(t)
	waivers := prog.Waivers()
	if len(waivers) == 0 {
		t.Fatal("no //llmdm: annotations in the tree; expected at least the sched and obs sites")
	}

	type key struct {
		file     string
		line     int
		analyzer string
	}
	hits := map[key]bool{}
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzersProg(prog, pkg, suite.All(), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			hits[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] = true
		}
	}

	// A directive covers its own line and the line below it.
	resurfaces := func(w analysis.Waiver, analyzer string) bool {
		return hits[key{w.Pos.Filename, w.Pos.Line, analyzer}] ||
			hits[key{w.Pos.Filename, w.Pos.Line + 1, analyzer}]
	}
	for _, w := range waivers {
		if w.Reason == "" {
			t.Errorf("reasonless annotation at %s: every waiver must say why", w.Pos)
		}
		analyzer := w.Analyzer
		if w.Verb == "detached" {
			analyzer = "ctxflow" // detached roots are ctxflow's charter
		}
		if !resurfaces(w, analyzer) {
			t.Errorf("annotation at %s [%s %s] waives nothing: no %s finding resurfaces under IgnoreAnnotations — stale or mis-targeted",
				w.Pos, w.Verb, w.Analyzer, analyzer)
		}
	}
}

// TestSchedAnnotationsAreLoadBearing re-runs the suite over internal/sched
// with annotations ignored and asserts the deliberate sites resurface:
// the detached batch-flush root (ctxflow) and the gated enqueue's comm
// ops (lockscope). If someone deletes the annotations, the clean-tree
// test above fails; if someone weakens the analyzers until the sites no
// longer trigger, this test fails.
func TestSchedAnnotationsAreLoadBearing(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, []string{"./internal/sched"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]

	ctxflowDiags := analysistest.Findings(t, pkg, suite.ByName("ctxflow"), true)
	found := false
	for _, d := range ctxflowDiags {
		if filepath.Base(d.Pos.Filename) == "sched.go" && strings.Contains(d.Message, "context.Background()") {
			found = true
		}
	}
	if !found {
		t.Errorf("ctxflow with annotations ignored did not flag sched.go's detached batch-flush root; got %v", ctxflowDiags)
	}

	lockDiags := analysistest.Findings(t, pkg, suite.ByName("lockscope"), true)
	if len(lockDiags) < 2 {
		t.Errorf("lockscope with annotations ignored found %d diagnostics in internal/sched, want >= 2 (the gated enqueue's send and cancel arms)", len(lockDiags))
	}

	// And with annotations honored, both analyzers accept the package.
	for _, name := range []string{"ctxflow", "lockscope"} {
		if diags := analysistest.Findings(t, pkg, suite.ByName(name), false); len(diags) != 0 {
			t.Errorf("%s over internal/sched with annotations honored: %v, want clean", name, diags)
		}
	}
}

// TestObsSpawnHelperAnnotationIsLoadBearing: the managed spawn helper's
// own `go` statement is the one waived gospawn site in internal/obs.
func TestObsSpawnHelperAnnotationIsLoadBearing(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, []string{"./internal/obs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	diags := analysistest.Findings(t, pkgs[0], suite.ByName("gospawn"), true)
	found := false
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "spawn.go" {
			found = true
		}
	}
	if !found {
		t.Errorf("gospawn with annotations ignored did not flag obs.Go's internal spawn; got %v", diags)
	}
	if diags := analysistest.Findings(t, pkgs[0], suite.ByName("gospawn"), false); len(diags) != 0 {
		t.Errorf("gospawn over internal/obs with annotations honored: %v, want clean", diags)
	}
}

// injectPackage writes src into a temp dir and loads it as a package
// under the given import path — defect-injection scaffolding for the
// analyzers the (genuinely clean) tree gives no live findings for.
func injectPackage(t *testing.T, importPath, src string) *analysis.Package {
	t.Helper()
	path := filepath.Join(t.TempDir(), "injected.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFiles([]string{path}, importPath)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestLockOrderDetectsInjectedInversion: the tree holds no lock-order
// cycles, so prove the detection machinery end to end by injecting an
// AB/BA inversion and asserting lockorder reports the cycle.
func TestLockOrderDetectsInjectedInversion(t *testing.T) {
	pkg := injectPackage(t, "repro/internal/injected", `package injected

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }

func lockB(y *b) {
	y.mu.Lock()
	y.mu.Unlock()
}

func lockA(x *a) {
	x.mu.Lock()
	x.mu.Unlock()
}

func aThenB(x *a, y *b) {
	x.mu.Lock()
	defer x.mu.Unlock()
	lockB(y)
}

func bThenA(x *a, y *b) {
	y.mu.Lock()
	defer y.mu.Unlock()
	lockA(x)
}
`)
	diags := analysistest.Findings(t, pkg, suite.ByName("lockorder"), false)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "lock-order cycle") {
			found = true
		}
	}
	if !found {
		t.Errorf("lockorder did not detect the injected AB/BA inversion; got %v", diags)
	}
}

// TestGoleakDetectsInjectedPark: the serving path has no parked-forever
// goroutines, so inject one (an unguarded send in a proxy-path spawn)
// and assert goleak reports it.
func TestGoleakDetectsInjectedPark(t *testing.T) {
	pkg := injectPackage(t, "repro/internal/proxy", `package proxy

func leak(ch chan int) {
	go func() {
		ch <- 1
	}()
}
`)
	diags := analysistest.Findings(t, pkg, suite.ByName("goleak"), false)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "park forever") {
			found = true
		}
	}
	if !found {
		t.Errorf("goleak did not detect the injected unguarded send; got %v", diags)
	}
}

// TestReslifecycleDetectsInjectedLeak pins the shape of the true
// finding this suite caught in internal/proxy (a tier stream opened in
// a goroutine and abandoned on the panic path): reinjecting the
// pre-fix shape must still trip the analyzer.
func TestReslifecycleDetectsInjectedLeak(t *testing.T) {
	pkg := injectPackage(t, "repro/internal/injected", `package injected

import (
	"context"

	"repro/internal/llm"
)

func open(ctx context.Context) (llm.Stream, error) { return nil, nil }

func abandons(ctx context.Context) error {
	s, err := open(ctx)
	if err != nil {
		return err
	}
	_ = s
	return nil
}
`)
	diags := analysistest.Findings(t, pkg, suite.ByName("reslifecycle"), false)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "not released on every path") {
			found = true
		}
	}
	if !found {
		t.Errorf("reslifecycle did not detect the injected abandoned stream; got %v", diags)
	}
}

// TestSuiteIsComplete pins the analyzer roster: a new analyzer must join
// the suite (and so `make lint` and this enforcement test) to exist.
func TestSuiteIsComplete(t *testing.T) {
	want := []string{
		"ctxflow", "lockscope", "billmeter", "gospawn", "metricname",
		"lockorder", "reslifecycle", "goleak",
	}
	all := suite.All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("suite[%d] = %s, want %s", i, all[i].Name, name)
		}
		if suite.ByName(name) != all[i] {
			t.Errorf("ByName(%q) does not resolve to the suite entry", name)
		}
	}
	if suite.ByName("nosuch") != nil {
		t.Error("ByName of an unknown analyzer should be nil")
	}
}

package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
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
// nine-analyzer suite over the whole module must be clean. It is the
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

// TestReachLoadsEveryMain: reach's roots are the mains of the shared tree,
// so the tree must hold every command — cmd/*, examples/* and the e2e
// harness in bench/, a module of its own. If the loader stopped at
// bench/go.mod, reach would flag what only bench/e2e calls (the proxy's
// Tenants and Tracer), in a module this tree cannot delete them from.
func TestReachLoadsEveryMain(t *testing.T) {
	pkgs, _ := loadTree(t)
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mains := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.Name == "main" {
			mains[pkg.Path] = true
		}
	}
	want := []string{"bench/e2e"}
	for _, parent := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				want = append(want, parent+"/"+e.Name())
			}
		}
	}
	if len(want) < 12 {
		t.Fatalf("found %d commands, want at least 12: %v", len(want), want)
	}
	for _, dir := range want {
		if !mains["repro/"+dir] {
			t.Errorf("the shared tree holds no package main for %s", dir)
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
	// A reach waiver above a package clause makes the package's exported
	// API a root, so what it waives are reach findings anywhere in the
	// package: clauses maps each file's package-clause line to its package.
	clauses := map[key]*analysis.Package{}
	pkgHits := map[*analysis.Package]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			pos := pkg.Fset.Position(f.Package)
			clauses[key{pos.Filename, pos.Line, "reach"}] = pkg
		}
		diags, err := analysis.RunAnalyzersProg(prog, pkg, suite.All(), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			hits[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] = true
			pkgHits[pkg] = pkgHits[pkg] || d.Analyzer == "reach"
		}
	}

	// A directive covers its own line and the line below it.
	resurfaces := func(w analysis.Waiver, analyzer string) bool {
		if pkg := clauses[key{w.Pos.Filename, w.Pos.Line + 1, analyzer}]; pkg != nil {
			return pkgHits[pkg]
		}
		return hits[key{w.Pos.Filename, w.Pos.Line, analyzer}] ||
			hits[key{w.Pos.Filename, w.Pos.Line + 1, analyzer}]
	}
	for _, w := range waivers {
		if w.Reason == "" {
			t.Errorf("reasonless annotation at %s: every waiver must say why", w.Pos)
		}
		if w.Verb == "bench" {
			continue // it waives nothing; the second reach row of seeded shows what it adds
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

// seededRow is one plausible regression of the real tree: old → new
// edit pairs applied to file (normally one pair), and where the
// analyzer's finding lands — the first edit's line, unless at names
// another: the line holding it, in atFile if set, else in file.
type seededRow struct {
	analyzer, file string
	edits          []string
	atFile, at     string
}

// seeded holds at least one row per analyzer. The tree itself gives the
// analyzers no live findings, so these rows are what shows each one
// catches a mistake in the code it guards, not only in its fixtures.
var seeded = []seededRow{
	// Submit's wait arm (the enqueue arm above it is waived) on a fresh
	// root: the caller's cancellation no longer reaches the wait.
	{analyzer: "ctxflow", file: "internal/sched/sched.go",
		edits: []string{"\tcase <-ctx.Done():\n", "\tcase <-context.Background().Done():\n"}},
	// Close waits out the flush goroutines holding the lock every Submit
	// takes.
	{analyzer: "lockscope", file: "internal/sched/sched.go",
		edits: []string{"\ts.mu.Unlock()\n\ts.wg.Wait()\n", "\ts.wg.Wait()\n\ts.mu.Unlock()\n"}, at: "s.wg.Wait()"},
	// The judge's spend is dropped: the model call is neither billed nor
	// returned.
	{analyzer: "billmeter", file: "internal/core/integrate/entity.go",
		edits: []string{"\t\tr.Cost += resp.Cost\n", ""}, at: "resp, err := "},
	// The upstream run loses its panic containment.
	{analyzer: "gospawn", file: "internal/proxy/proxy.go",
		edits: []string{`obs.Go(p.reg, "proxy_upstream", func() {`, "go func() {", "\t})\n}\n\n// degrade", "\t}()\n}\n\n// degrade"},
		at:    "go func() {"},
	// A dynamic metric name in place of a label.
	{analyzer: "metricname", file: "internal/proxy/proxy.go",
		edits: []string{`reg.Histogram("proxy_latency_seconds", obs.LatencyBuckets, "source", src)`,
			`reg.Histogram("proxy_latency_seconds_"+src, obs.LatencyBuckets)`}},
	// Publish asks Len, which takes the Cache.mu Publish holds.
	{analyzer: "lockorder", file: "internal/core/semcache/semcache.go",
		edits: []string{"len(c.entries) > c.capacity", "c.Len() > c.capacity"}},
	// The tier stream is no longer closed on the panic path: the true
	// finding this suite once caught in the upstream pump.
	{analyzer: "reslifecycle", file: "internal/proxy/proxy.go",
		edits: []string{"\t\t\tdefer rs.Close()\n", ""}, at: "p.casc.CompleteStream("},
	// Submit's wait arm can never fire: the pump's goroutine parks in it,
	// three calls down.
	{analyzer: "goleak", file: "internal/sched/sched.go",
		edits:  []string{"\tcase <-ctx.Done():\n", "\tcase <-make(chan struct{}):\n"},
		atFile: "internal/proxy/proxy.go", at: "rs.Recv()"},
	// A follower keeps its lookup vector: Release has no caller left.
	{analyzer: "reach", file: "internal/proxy/proxy.go",
		edits:  []string{"\t\tp.cache.Release(kept)\n", ""},
		atFile: "internal/core/semcache/semcache.go", at: "func (c *Cache) Release("},
	// The proxy drops -batch-max: only the benchmark suite still sets
	// MaxBatch, and a //llmdm:bench package is no caller.
	{analyzer: "reach", file: "cmd/llmdm-proxy/main.go",
		edits:  []string{"\t\t\tMaxBatch: *batchMax,\n", ""},
		atFile: "internal/sched/sched.go", at: "\tMaxBatch int\n"},
}

// TestSeededRegressions copies the module, applies one row's edits, loads
// the copy as llmdm-lint does and runs the whole suite: every finding
// must be the row's analyzer at the row's site, and there must be one.
// An unedited copy must report nothing. The rows run in parallel, so
// under -race they also check that loads share the FileSet and the
// stdlib importer safely.
func TestSeededRegressions(t *testing.T) {
	rowsOf := map[string]int{}
	for _, row := range seeded {
		rowsOf[row.analyzer]++
	}
	for _, a := range suite.All() {
		if rowsOf[a.Name] == 0 {
			t.Errorf("no seeded row for %s: every analyzer needs one", a.Name)
		}
		delete(rowsOf, a.Name)
	}
	for name := range rowsOf {
		t.Errorf("seeded row for %s, which is not in the suite", name)
	}
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	rows := append([]seededRow{{analyzer: "unedited"}}, seeded...)
	for _, row := range rows {
		t.Run(row.analyzer, func(t *testing.T) {
			t.Parallel()
			dir := copyModule(t, root)
			var wantFile string
			var line int
			if row.edits != nil {
				wantFile, line = seed(t, dir, row)
			}
			pkgs, err := analysis.Load(dir, []string{"./..."})
			if err != nil {
				t.Fatal(err)
			}
			prog := analysis.BuildProgram(pkgs)
			found := 0
			for _, pkg := range pkgs {
				diags, err := analysis.RunAnalyzersProg(prog, pkg, suite.All(), false)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range diags {
					rel, _ := filepath.Rel(dir, d.Pos.Filename)
					if d.Analyzer == row.analyzer && filepath.ToSlash(rel) == wantFile && d.Pos.Line == line {
						found++
						continue
					}
					t.Errorf("finding off the seeded site %s:%d: %s", wantFile, line, d)
				}
			}
			if found == 0 && row.edits != nil {
				t.Errorf("%s did not catch the seeded regression: no finding at %s:%d", row.analyzer, wantFile, line)
			}
		})
	}
}

// seed applies row's edits to the copy in dir and returns the site its
// finding must land on.
func seed(t *testing.T, dir string, row seededRow) (file string, line int) {
	t.Helper()
	path := filepath.Join(dir, row.file)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	for i := 0; i < len(row.edits); i += 2 {
		if at := lineOf(t, row.file, text, row.edits[i]); i == 0 {
			line = at
		}
		text = strings.Replace(text, row.edits[i], row.edits[i+1], 1)
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if row.atFile == "" && row.at == "" {
		return row.file, line
	}
	file = row.file
	if row.atFile != "" {
		file = row.atFile
	}
	src, err = os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	return file, lineOf(t, file, string(src), row.at)
}

// lineOf is the line of text holding marker, which must occur once.
func lineOf(t *testing.T, file, text, marker string) int {
	t.Helper()
	if n := strings.Count(text, marker); n != 1 {
		t.Fatalf("%s holds %q %d times, want once: re-seed the row", file, marker, n)
	}
	return strings.Count(text[:strings.Index(text, marker)], "\n") + 1
}

// copyModule copies what the loader reads of the module — every go.mod
// and every non-test .go file outside testdata and hidden directories —
// into a temp dir.
func copyModule(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestSuiteIsComplete pins the analyzer roster: a new analyzer must join
// the suite (and so `make lint` and this enforcement test) to exist.
func TestSuiteIsComplete(t *testing.T) {
	want := []string{
		"ctxflow", "lockscope", "billmeter", "gospawn", "metricname",
		"lockorder", "reslifecycle", "goleak", "reach",
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

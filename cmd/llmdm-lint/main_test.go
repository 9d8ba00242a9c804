package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

// injectProgram writes src as lib.go in a temp dir and builds a
// one-package Program over it, returning the program and its root so
// tests can drive runReport/runWaiverReport with fully known positions.
func injectProgram(t *testing.T, src string) (*analysis.Program, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "lib.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadTree(dir, "repro/internal/tmplib")
	if err != nil {
		t.Fatal(err)
	}
	return analysis.BuildProgram(pkgs), dir
}

// TestJSONGolden pins the llmdm-lint/1 schema byte for byte: field
// names, ordering, the waived flag on annotated sites, and count being
// the non-waived subset. A schema change must change this golden.
func TestJSONGolden(t *testing.T) {
	prog, root := injectProgram(t, `package tmplib

import "context"

func fresh() context.Context {
	return context.Background()
}

func deliberate() context.Context {
	//llmdm:detached fixture: process-scoped warm-up root
	return context.TODO()
}
`)
	var buf bytes.Buffer
	code := runReport(&buf, prog, root, suite.All(), true)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (one non-waived finding)", code)
	}
	const golden = `{
  "schema": "llmdm-lint/1",
  "findings": [
    {
      "file": "lib.go",
      "line": 6,
      "col": 9,
      "analyzer": "ctxflow",
      "message": "context.Background() in library code: thread ctx from the caller, or annotate a deliberate detached root with //llmdm:detached",
      "waived": false
    },
    {
      "file": "lib.go",
      "line": 11,
      "col": 9,
      "analyzer": "ctxflow",
      "message": "context.TODO() in library code: thread ctx from the caller, or annotate a deliberate detached root with //llmdm:detached",
      "waived": true
    }
  ],
  "count": 1
}
`
	if got := buf.String(); got != golden {
		t.Errorf("-json output drifted from the llmdm-lint/1 golden\ngot:\n%s\nwant:\n%s", got, golden)
	}

	// The document must round-trip through the published struct shape.
	var report jsonReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("golden output does not unmarshal: %v", err)
	}
	if report.Schema != "llmdm-lint/1" || report.Count != 1 || len(report.Findings) != 2 {
		t.Errorf("round-trip mismatch: %+v", report)
	}
}

// TestJSONCleanTree: an empty finding set still emits findings as [],
// not null, and exits 0 — CI consumers parse the same shape either way.
func TestJSONCleanTree(t *testing.T) {
	prog, root := injectProgram(t, `package tmplib

func add(a, b int) int { return a + b }
`)
	var buf bytes.Buffer
	if code := runReport(&buf, prog, root, suite.All(), true); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(buf.String(), `"findings": []`) {
		t.Errorf("clean report should serialize findings as [], got:\n%s", buf.String())
	}
}

// TestTextOutput pins the human-readable diagnostic line format and the
// 0/1 exit split.
func TestTextOutput(t *testing.T) {
	prog, root := injectProgram(t, `package tmplib

import "context"

func fresh() context.Context {
	return context.Background()
}
`)
	var buf bytes.Buffer
	if code := runReport(&buf, prog, root, suite.All(), false); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	want := "lib.go:6:9: [ctxflow] context.Background() in library code"
	if !strings.HasPrefix(buf.String(), want) {
		t.Errorf("text output = %q, want prefix %q", buf.String(), want)
	}
}

// TestLoadErrorExitCode: an unresolvable pattern is exit 2, distinct
// from "findings" so CI can tell a broken invocation from a dirty tree.
func TestLoadErrorExitCode(t *testing.T) {
	var buf bytes.Buffer
	if code := runStandalone(&buf, []string{"./no-such-subtree"}, suite.All(), false); code != 2 {
		t.Errorf("exit code for bad pattern = %d, want 2", code)
	}

	// A tree that does not type-check is a load error too, never a clean
	// report: the analyzers' facts come from the checker.
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"bad.go": "package tmpmod\n\nfunc f() int {\n\treturn \"not an int\"\n}\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if code := runStandalone(&buf, []string{"./..."}, suite.All(), false); code != 2 {
		t.Errorf("exit code for a type error = %d, want 2", code)
	}
	if _, _, err := loadProgram([]string{"./..."}); err == nil || !strings.Contains(err.Error(), "bad.go:4:") {
		t.Errorf("load error = %v, want the type error at bad.go:4", err)
	}
}

// TestWaiverAudit: -waivers lists each annotation with its reason and
// fails only when one has none.
func TestWaiverAudit(t *testing.T) {
	prog, root := injectProgram(t, `package tmplib

import "sync"

func locked(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	//llmdm:allow lockscope bounded by the test harness
	ch <- 1
}
`)
	var buf bytes.Buffer
	if code := runWaiverReport(&buf, prog, root); code != 0 {
		t.Fatalf("exit code = %d, want 0 (waiver has a reason); output:\n%s", code, buf.String())
	}
	want := "lib.go:8: [allow lockscope] bounded by the test harness\n"
	if buf.String() != want {
		t.Errorf("waiver listing = %q, want %q", buf.String(), want)
	}

	prog, root = injectProgram(t, `package tmplib

import "sync"

func locked(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	//llmdm:allow lockscope
	ch <- 1
}
`)
	buf.Reset()
	if code := runWaiverReport(&buf, prog, root); code != 1 {
		t.Fatalf("exit code = %d, want 1 (reasonless waiver); output:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "(no reason)") {
		t.Errorf("reasonless waiver should print (no reason), got %q", buf.String())
	}
}

// TestReasonlessWaiverIsAFinding: the standalone run is the whole gate —
// a waiver without a reason fails it in both output modes, even though
// the waiver silences the analyzer finding beneath it.
func TestReasonlessWaiverIsAFinding(t *testing.T) {
	prog, root := injectProgram(t, `package tmplib

import "sync"

func locked(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	//llmdm:allow lockscope
	ch <- 1
}
`)
	var buf bytes.Buffer
	if code := runReport(&buf, prog, root, suite.All(), false); code != 1 {
		t.Fatalf("text exit code = %d, want 1 (reasonless waiver); output:\n%s", code, buf.String())
	}
	want := "lib.go:8:0: [waiver] //llmdm:allow without a reason — every //llmdm: annotation must say why\n"
	if buf.String() != want {
		t.Errorf("text output = %q, want %q", buf.String(), want)
	}

	buf.Reset()
	if code := runReport(&buf, prog, root, suite.All(), true); code != 1 {
		t.Fatalf("json exit code = %d, want 1 (reasonless waiver); output:\n%s", code, buf.String())
	}
	var report jsonReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.Count != 1 || len(report.Findings) != 2 ||
		report.Findings[0].Analyzer != "waiver" || report.Findings[0].Waived ||
		report.Findings[1].Analyzer != "lockscope" || !report.Findings[1].Waived {
		t.Errorf("json report = %+v, want the waiver counted and the lockscope site waived", report)
	}
}

// TestModuleTreeIsCleanAndAudited runs the real CLI paths over a module
// of their own (testdata/tree): the standalone run must be clean (exit
// 0, no output) and the waiver audit must pass and list its one waiver.
// The real tree's clean run and waiver reasons are checked by
// internal/analysis's TestTreeHoldsItsInvariants and
// TestEveryWaiverIsLoadBearing, and by `make lint`.
func TestModuleTreeIsCleanAndAudited(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("testdata", "tree")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var buf bytes.Buffer
	if code := runStandalone(&buf, []string{"./..."}, suite.All(), false); code != 0 {
		t.Errorf("llmdm-lint ./... = exit %d, want 0; findings:\n%s", code, buf.String())
	}
	if buf.Len() != 0 {
		t.Errorf("clean tree should print nothing, got:\n%s", buf.String())
	}

	buf.Reset()
	if code := runWaivers(&buf, []string{"./..."}); code != 0 {
		t.Errorf("llmdm-lint -waivers ./... = exit %d, want 0; output:\n%s", code, buf.String())
	}
	if want := "lib/lib.go:7: [detached] the command's process-scoped root\n"; buf.String() != want {
		t.Errorf("waiver audit = %q, want %q", buf.String(), want)
	}
}

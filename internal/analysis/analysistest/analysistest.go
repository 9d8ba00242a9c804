// Package analysistest runs an analyzer over fixture files and checks
// its diagnostics against `// want "regexp"` comments, mirroring
// x/tools' analysistest on the project's stdlib-only framework.
//
// A fixture is a directory of .go files (under the analyzer's
// testdata/src/<case>/) that type-checks: it declares or imports what it
// uses, and a type error fails the test like any load error. Every line expected to produce a diagnostic
// carries a trailing `// want "re"` comment whose regexp must match the
// diagnostic message; unexpected diagnostics and unmatched wants both
// fail the test. A fixture can pin the import path the analyzers see
// (for package-path-scoped rules) with a `//llmdm:pkgpath <path>`
// comment.
//
// A fixture directory whose immediate children are themselves
// directories is a *multi-package* fixture: each subdirectory loads as
// one package (import path from its `//llmdm:pkgpath` pin, else
// "fixture/<subdir>"), all packages index into one shared Program, and
// the analyzer runs over every package — so a `want` in package a can
// be triggered by a summary computed from package b, which is how the
// interprocedural analyzers are tested honestly.
//
//llmdm:allow reach the analyzer tests' fixture harness: every analyzer test drives its exported API
package analysistest

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRE = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

// Run loads the fixture directory and applies the analyzer, comparing
// diagnostics against the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, diags := load(t, dir, a, false)

	type want struct {
		re      *regexp.Regexp
		raw     string
		matched bool
	}
	wants := map[string][]*want{} // "file:line" -> wants
	for _, pkg := range pkgs {
		for i, f := range pkg.Files {
			fn := pkg.Filenames[i]
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					unq := strings.ReplaceAll(m[1], `\"`, `"`)
					re, err := regexp.Compile(unq)
					if err != nil {
						t.Fatalf("analysistest: %s: bad want regexp %q: %v", fn, unq, err)
					}
					line := pkg.Fset.Position(c.Pos()).Line
					key := fn + ":" + strconv.Itoa(line)
					wants[key] = append(wants[key], &want{re: re, raw: unq})
				}
			}
		}
	}

	for _, d := range diags {
		key := d.Pos.Filename + ":" + strconv.Itoa(d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s", d)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("no diagnostic at %s matching %q", k, w.raw)
			}
		}
	}
}

// RunClean asserts the analyzer produces zero diagnostics on the fixture
// directory — the accepted-annotation half of each analyzer's suite.
func RunClean(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	Run(t, dir, a) // want comments (none expected) + unexpected check
}

// Findings loads the fixture directory as Run does and returns the
// analyzer's diagnostics — with ignoreAnnotations, what the fixture's
// waivers hold back resurfaces.
func Findings(t *testing.T, dir string, a *analysis.Analyzer, ignoreAnnotations bool) []analysis.Diagnostic {
	t.Helper()
	_, diags := load(t, dir, a, ignoreAnnotations)
	return diags
}

// load type-checks the fixture's packages into one Program and runs the
// analyzer over each.
func load(t *testing.T, dir string, a *analysis.Analyzer, ignoreAnnotations bool) ([]*analysis.Package, []analysis.Diagnostic) {
	t.Helper()
	pkgs, err := analysis.LoadTree(dir, "fixture")
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("analysistest: no fixture files in %s", dir)
	}
	prog := analysis.BuildProgram(pkgs)
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		ds, err := analysis.RunAnalyzersProg(prog, pkg, []*analysis.Analyzer{a}, ignoreAnnotations)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		diags = append(diags, ds...)
	}
	return pkgs, diags
}

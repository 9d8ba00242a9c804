package analysis_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// reportAll is a toy analyzer that reports every function declaration —
// enough surface to exercise the annotation machinery.
var reportAll = &analysis.Analyzer{
	Name: "reportall",
	Doc:  "reports every function declaration",
	Run: func(pass *analysis.Pass) error {
		pass.EachFile(func(name string, f *ast.File) {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fn.Pos(), "function %s", fn.Name.Name)
				}
			}
		})
		return nil
	},
}

// loadSource writes src as the one file of a package and loads it under
// importPath.
func loadSource(t *testing.T, importPath, src string) *analysis.Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadTree(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return pkgs[0]
}

func TestAllowAnnotationSuppresses(t *testing.T) {
	pkg := loadSource(t, "example.test/p", `package p

func flagged() {}

//llmdm:allow reportall justified because the test says so
func waivedAbove() {}

func waivedSameLine() {} //llmdm:allow reportall same-line form
`)
	diags, err := analysis.RunAnalyzersProg(analysis.BuildProgram([]*analysis.Package{pkg}), pkg, []*analysis.Analyzer{reportAll}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Message != "function flagged" {
		t.Fatalf("diagnostics = %v, want exactly [function flagged]", diags)
	}

	// IgnoreAnnotations surfaces the waived findings — the enforcement
	// tests use this to prove annotations are load-bearing.
	all, err := analysis.RunAnalyzersProg(analysis.BuildProgram([]*analysis.Package{pkg}), pkg, []*analysis.Analyzer{reportAll}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("with IgnoreAnnotations: %d diagnostics, want 3", len(all))
	}
}

func TestAllowAnnotationIsPerAnalyzer(t *testing.T) {
	pkg := loadSource(t, "example.test/p", `package p

//llmdm:allow otherrule not this one
func stillFlagged() {}
`)
	diags, err := analysis.RunAnalyzersProg(analysis.BuildProgram([]*analysis.Package{pkg}), pkg, []*analysis.Analyzer{reportAll}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want the unwaived finding", diags)
	}
}

func TestPkgpathDirectiveOverridesImportPath(t *testing.T) {
	pkg := loadSource(t, "fixture", `//llmdm:pkgpath repro/internal/sched

package p
`)
	if pkg.Path != "repro/internal/sched" {
		t.Fatalf("pkg.Path = %q, want the pinned path", pkg.Path)
	}
}

func TestLoadSkipsTestFilesAndTestdata(t *testing.T) {
	pkgs, _ := loadTree(t)
	for _, pkg := range pkgs {
		for _, fn := range pkg.Filenames {
			if filepath.Base(fn) == "f.go" && pkg.Path == "fixture" {
				t.Errorf("testdata fixture leaked into the module load: %s", fn)
			}
			if base := filepath.Base(fn); len(base) > 8 && base[len(base)-8:] == "_test.go" {
				t.Errorf("test file leaked into the load: %s", fn)
			}
			if filepath.Base(filepath.Dir(fn)) == "testdata" {
				t.Errorf("testdata dir leaked into the load: %s", fn)
			}
		}
	}

	// Build constraints select files the way the go tool does: of a
	// tagged pair declaring the same function only the one that builds
	// here is loaded — both would not even type-check.
	dir := t.TempDir()
	for name, src := range map[string]string{
		"impl_fast.go":  "//go:build llmdm_never_set\n\npackage p\n\nfunc impl() int { return 1 }\n",
		"impl_plain.go": "//go:build !llmdm_never_set\n\npackage p\n\nfunc impl() int { return 2 }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := analysis.LoadTree(dir, "example.test/p")
	if err != nil {
		t.Fatalf("tagged pair: %v", err)
	}
	if pkg := pkgs[0]; len(pkg.Filenames) != 1 || filepath.Base(pkg.Filenames[0]) != "impl_plain.go" {
		t.Errorf("tagged pair loaded %v, want only impl_plain.go", pkg.Filenames)
	}
}

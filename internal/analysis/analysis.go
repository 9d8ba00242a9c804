// Package analysis is the project's static-analysis framework: a small,
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus the repo-specific
// annotation escape hatches the analyzers honor.
//
// The nine analyzers built on it enforce the serving-path invariants.
// Five look at one function at a time (ctxflow, lockscope, billmeter,
// gospawn, metricname): contexts thread from the caller, no blocking call
// runs under a lock, every model call's spend is accounted, detached
// goroutines are managed, and metric names are static lowercase_snake
// constants. Three are interprocedural, over the shared call graph
// (lockorder, reslifecycle, goleak): locks are taken in one global order,
// streams, pooled scratch and response bodies are released on every
// path, and no serving goroutine can park forever on a channel. The
// ninth, reach, walks the whole program from its entry points.
// cmd/llmdm-lint runs them over the module (`make lint`), and
// internal/analysis's own tests run them over the serving-path packages
// so `go test ./...` fails on a regression too.
//
// # Annotations
//
// Two comment directives suppress diagnostics at a specific site, on the
// same line as the flagged expression or on the line directly above it:
//
//	//llmdm:detached [reason]         ctxflow: this context.Background()
//	                                  is a deliberate detached root (e.g.
//	                                  the scheduler's batch-flush timeout).
//	//llmdm:allow <analyzer> [reason] any analyzer: accept this site.
//
// Both should carry a reason; they are grep-able audit points, not
// blanket waivers. A reach waiver also makes its declaration a root (see
// package reach).
//
// The framework is the standard library's own: go/parser for syntax,
// go/types for meaning. Every loaded package is type-checked (load.go),
// so an analyzer identifies a function, a lock or a tracked value by its
// types.Object and never by how the source happens to spell it; what
// stays name-based is vocabulary that is itself a project convention
// (a method called Complete moves money, a channel called stop is an
// exit signal). golang.org/x/tools is not required.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring x/tools' go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //llmdm:allow annotations.
	Name string
	// Doc is the one-paragraph rule statement printed by llmdm-lint -list.
	Doc string
	// Run reports diagnostics for one package via pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded Go package: parsed and type-checked.
type Package struct {
	// Path is the import path ("repro/internal/sched").
	Path string
	// Name is the package name ("sched", "main").
	Name string
	// Fset is the FileSet every package of the process shares.
	Fset *token.FileSet
	// Files are the parsed non-test sources, parallel to Filenames.
	Files     []*ast.File
	Filenames []string
	// Types and Info are the checker's results for Files.
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the interprocedural view of the package group the pass's
	// package was loaded with. Always non-nil: single-package runs get a
	// one-package program.
	Prog *Program
	// IgnoreAnnotations makes Reportf ignore //llmdm: escape hatches —
	// used by tests to prove an annotation is what accepts a site.
	IgnoreAnnotations bool

	diags  *[]Diagnostic
	annots map[*ast.File]lineDirectives
	cur    *ast.File
}

// lineDirectives maps a source line to the llmdm directives on it.
type lineDirectives map[int][]directive

type directive struct {
	verb   string // "detached" | "allow"
	arg    string // analyzer name for "allow"
	reason string // free-text justification after the verb/analyzer
}

// parseDirectives extracts //llmdm: comments from a file.
func parseDirectives(fset *token.FileSet, f *ast.File) lineDirectives {
	ld := lineDirectives{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "llmdm:") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, "llmdm:"))
			if len(fields) == 0 {
				continue
			}
			d := directive{verb: fields[0]}
			rest := fields[1:]
			if d.verb == "allow" && len(rest) > 0 {
				d.arg = rest[0]
				rest = rest[1:]
			}
			d.reason = directiveReason(rest)
			line := fset.Position(c.Pos()).Line
			ld[line] = append(ld[line], d)
		}
	}
	return ld
}

// directiveReason joins the free-text tail of a directive, tolerating a
// leading separator ("—", "--", "-", ":").
func directiveReason(fields []string) string {
	for len(fields) > 0 {
		switch fields[0] {
		case "—", "--", "-", ":":
			fields = fields[1:]
			continue
		}
		break
	}
	return strings.Join(fields, " ")
}

// Waiver is one //llmdm: annotation site, for the -waivers audit.
type Waiver struct {
	Pos token.Position
	// Verb is "allow" or "detached"; Analyzer the waived analyzer for
	// "allow" ("" for detached).
	Verb     string
	Analyzer string
	Reason   string
}

// String renders the waiver in the canonical audit-line form.
func (w Waiver) String() string {
	name := w.Verb
	if w.Analyzer != "" {
		name += " " + w.Analyzer
	}
	reason := w.Reason
	if reason == "" {
		reason = "(no reason)"
	}
	return fmt.Sprintf("%s: [%s] %s", w.Pos, name, reason)
}

// Waivers lists every annotation site in the program, position-sorted.
func (pr *Program) Waivers() []Waiver {
	var out []Waiver
	for _, pkg := range pr.Pkgs {
		for _, f := range pkg.Files {
			for line, ds := range pr.directivesFor(pkg, f) {
				for _, d := range ds {
					pos := pkg.Fset.Position(f.Pos())
					pos.Line = line
					pos.Column = 0
					out = append(out, Waiver{
						Pos: pos, Verb: d.verb, Analyzer: d.arg, Reason: d.reason,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

// RunAnalyzersProg applies each analyzer to pkg with prog as the
// interprocedural context and returns the combined, position-sorted
// diagnostics.
func RunAnalyzersProg(prog *Program, pkg *Package, analyzers []*Analyzer, ignoreAnnotations bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	annots := make(map[*ast.File]lineDirectives, len(pkg.Files))
	for _, f := range pkg.Files {
		annots[f] = prog.directivesFor(pkg, f)
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:          a,
			Pkg:               pkg,
			Prog:              prog,
			IgnoreAnnotations: ignoreAnnotations,
			diags:             &diags,
			annots:            annots,
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// EachFile invokes fn for every file in the pass's package, tracking the
// current file so Reportf and the annotation helpers resolve against it.
func (p *Pass) EachFile(fn func(name string, f *ast.File)) {
	for i, f := range p.Pkg.Files {
		p.cur = f
		fn(p.Pkg.Filenames[i], f)
	}
	p.cur = nil
}

// Reportf records a diagnostic at pos unless an annotation allows the
// site (//llmdm:allow <analyzer> on the same line or the line above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if !p.IgnoreAnnotations && p.allowed(pos, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Detached reports whether pos carries a //llmdm:detached annotation
// (same line or the line above) — ctxflow's escape hatch for deliberate
// detached context roots.
func (p *Pass) Detached(pos token.Pos) bool {
	if p.IgnoreAnnotations {
		return false
	}
	return p.hasDirective(pos, func(d directive) bool { return d.verb == "detached" })
}

func (p *Pass) allowed(pos token.Pos, analyzer string) bool {
	return p.hasDirective(pos, func(d directive) bool {
		return d.verb == "allow" && d.arg == analyzer
	})
}

func (p *Pass) hasDirective(pos token.Pos, match func(directive) bool) bool {
	f := p.fileFor(pos)
	if f == nil {
		return false
	}
	line := p.Pkg.Fset.Position(pos).Line
	for _, d := range p.annots[f][line] {
		if match(d) {
			return true
		}
	}
	for _, d := range p.annots[f][line-1] {
		if match(d) {
			return true
		}
	}
	return false
}

func (p *Pass) fileFor(pos token.Pos) *ast.File {
	if p.cur != nil && p.cur.FileStart <= pos && pos <= p.cur.FileEnd {
		return p.cur
	}
	for _, f := range p.Pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// IsMain reports whether the package is a command (package main) —
// exempt from ctxflow and billmeter, which govern library code.
func (p *Pass) IsMain() bool { return p.Pkg.Name == "main" }

// PathHasPrefix reports whether the package's import path equals prefix
// or sits beneath it.
func (p *Pass) PathHasPrefix(prefix string) bool {
	return p.Pkg.Path == prefix || strings.HasPrefix(p.Pkg.Path, prefix+"/")
}

// servingPath lists the packages a request runs through, where a stray
// goroutine outlives it: the packages gospawn and goleak govern.
var servingPath = []string{
	"repro/internal/proxy",
	"repro/internal/sched",
	"repro/internal/resilience",
	"repro/internal/obs",
	"repro/internal/llm",
	"repro/internal/core/cascade",
	"repro/internal/core/semcache",
}

// OnServingPath reports whether the package is a serving-path package
// or sits beneath one.
func (p *Pass) OnServingPath() bool {
	for _, prefix := range servingPath {
		if p.PathHasPrefix(prefix) {
			return true
		}
	}
	return false
}

// ExprString renders a (simple) expression for use in lock-identity keys
// and messages: identifiers, selectors, parens, stars and indexes.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.IndexExpr:
		return ExprString(e.X) + "[...]"
	case *ast.CallExpr:
		return ExprString(e.Fun) + "()"
	default:
		return fmt.Sprintf("%T", e)
	}
}

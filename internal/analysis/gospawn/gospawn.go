// Package gospawn governs goroutine creation in serving-path packages.
//
// A detached goroutine in the serving stack is a liability twice over:
// an un-recovered panic tears down the whole proxy process, and a
// goroutine with no context or stop signal can neither be cancelled nor
// drained on shutdown. PR 2/3 hand-audited these properties; this
// analyzer pins them.
//
// In the serving-path packages (proxy, sched, resilience, obs, llm,
// cascade, semcache), every `go` statement must either:
//
//   - spawn a function literal that (a) installs a deferred recover()
//     and (b) references a context or stop/done channel, or
//   - be inside the managed spawn helper obs.Go (whose single `go` site
//     carries the annotation), with callers using obs.Go instead of a
//     bare `go`, or
//   - carry //llmdm:allow gospawn with a reason.
//
// `go someFunc()` spawns (no literal) resolve through the program's
// call graph: if the spawned function's summary proves both properties —
// it installs a deferred recover() AND references a ctx/stop signal —
// the spawn is accepted (through an interface: when every implementation
// in the program proves both). Unresolvable or unproven named spawns are
// flagged as before: the site must go through obs.Go or be annotated.
package gospawn

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the gospawn rule.
var Analyzer = &analysis.Analyzer{
	Name: "gospawn",
	Doc: "serving-path `go` statements must recover panics and carry a ctx/stop signal, " +
		"or go through the managed spawn helper obs.Go",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !pass.OnServingPath() {
		return nil
	}
	pass.EachFile(func(name string, f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := pass.Prog.FuncOf(pass.Pkg, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					checkNamedSpawn(pass, fi, g)
					return true
				}
				if !analysis.HasDeferredRecover(pass.Pkg.Info, lit.Body) {
					pass.Reportf(g.Pos(),
						"goroutine without panic recovery: install `defer func() { recover() ... }()` or spawn through obs.Go")
				}
				// The literal's parameters count: a ctx handed in is a signal.
				if !analysis.RefsStopSignal(lit) {
					pass.Reportf(g.Pos(),
						"goroutine carries no context or stop/done signal: it can neither be cancelled nor drained on shutdown")
				}
				return true
			})
		}
	})
	return nil
}

// checkNamedSpawn handles `go fn()` with no literal: the body is out of
// sight locally, but the call graph isn't — if fn's summary proves it
// both recovers panics and references a ctx/stop signal, the spawn
// carries its own containment and is accepted.
func checkNamedSpawn(pass *analysis.Pass, fi *analysis.FuncInfo, g *ast.GoStmt) {
	var callees []*analysis.FuncInfo
	if fi != nil {
		callees = pass.Prog.Resolve(fi, g.Call)
	}
	proven := len(callees) > 0
	for _, callee := range callees {
		sum := pass.Prog.Summary(callee)
		proven = proven && sum.Recovers && sum.RefsStop
	}
	if proven {
		return
	}
	pass.Reportf(g.Pos(),
		"bare `go %s(...)` without provable panic recovery and stop signal: spawn through the managed helper obs.Go (panic containment) or annotate //llmdm:allow gospawn",
		analysis.ExprString(g.Call.Fun))
}

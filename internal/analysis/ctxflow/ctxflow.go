// Package ctxflow forbids minting fresh context roots in library code.
//
// Every serving-path operation must run under the caller's context so
// cancellation, deadlines, priority classes (sched.WithClass) and trace
// spans flow end to end. `context.Background()` or `context.TODO()` in a
// library function silently detaches all of that — the exact bug class
// that made internal/exper unkillable before this suite.
//
// Allowed: package main (a process owns its root), test files (excluded
// at load time), and sites annotated //llmdm:detached — deliberate
// detached roots such as the scheduler's batch-flush timeout, which must
// outlive any single submitter. Detached work that should inherit values
// (but not cancellation) must use context.WithoutCancel instead.
//
// The summary layer adds the dual check: a function that ACCEPTS a
// named ctx parameter but never references it, while its body provably
// blocks (a model call, channel op, sleep or HTTP round-trip in its
// summary), has detached the caller's cancellation just as surely as a
// fresh Background() — the deadline stops dead at its signature. Such
// functions are reported at the declaration; deliberate sinks annotate
// //llmdm:allow ctxflow (an underscore `_ context.Context` parameter —
// interface conformance — is always fine).
package ctxflow

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the ctxflow rule.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "forbid context.Background()/context.TODO() outside package main and tests; " +
		"deliberate detached roots must be annotated //llmdm:detached " +
		"(or derive from the caller via context.WithoutCancel)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.IsMain() {
		return nil
	}
	background, todo := pass.Prog.Object("context", "Background"), pass.Prog.Object("context", "TODO")
	if background == nil {
		return nil // nothing in the program imports context
	}
	pass.EachFile(func(name string, f *ast.File) {
		analysis.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.Pkg.Info, call)
			if fn == nil || (fn != background && fn != todo) || pass.Detached(call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(),
				"context.%s() in library code: thread ctx from the caller, or annotate a deliberate detached root with //llmdm:detached",
				fn.Name())
			return true
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkDroppedCtx(pass, fd)
			}
		}
	})
	return nil
}

// checkDroppedCtx reports a function that takes a named ctx parameter,
// never references it, and whose summary proves the body blocks: the
// caller's cancellation dies at the signature.
func checkDroppedCtx(pass *analysis.Pass, fd *ast.FuncDecl) {
	fi := pass.Prog.FuncOf(pass.Pkg, fd)
	if fi == nil {
		return
	}
	sum := pass.Prog.Summary(fi)
	if sum.CtxParam == nil || sum.CtxUsed || len(sum.Blocking) == 0 {
		return
	}
	pass.Reportf(fd.Pos(),
		"%s accepts %s but never threads it past its blocking work (%s): the caller's cancellation and deadline stop dead here — pass the ctx down or annotate //llmdm:allow ctxflow",
		fd.Name.Name, sum.CtxParam.Name(), sum.Blocking[0].What)
}

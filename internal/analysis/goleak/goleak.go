// Package goleak statically flags serving-path goroutines that can park
// forever on a channel operation with no guaranteed counterpart.
//
// The runtime -race gate catches data races but not leaks: a goroutine
// blocked on `ch <- v` after every receiver has returned simply
// accumulates. On the serving path (the same package list gospawn
// governs) every goroutine's channel operations must be provably
// exit-able. A channel op is accepted when any of these hold:
//
//   - it sits in a select with a default clause or an exit arm — a
//     receive from ctx.Done()/Err(), from a stop/done/quit-family
//     channel, or from a timer/ticker .C;
//   - it is a receive from a stop-family channel or a timer .C (the
//     op *is* the exit wait);
//   - it is a send on a channel variable or field observed being made
//     with a buffer anywhere in the program (`make(chan T, n>0)`) — the
//     slot guarantees the send completes;
//   - it is a receive from such a buffered channel whose elements are
//     empty structs — a counting semaphore, where the receive is the
//     release of a token the goroutine's own earlier send put in;
//   - close(ch), which never blocks.
//
// The check is interprocedural: a goroutine body that *calls* a
// function whose summary (transitively) contains an unguarded channel
// op is flagged at the call site, using the Program layer's summaries.
// Sends/receives outside any goroutine are not goleak's business —
// blocking a request-scoped function is lockscope/ctxflow territory.
//
// Escape hatch: //llmdm:allow goleak <reason> at the channel op (for
// ops waived inside a summarized callee, the waiver also silences every
// caller — the justification travels with the summary).
package goleak

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the goleak rule.
var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc: "serving-path goroutines must not park forever: every channel op reachable from a " +
		"goroutine body (through summarized callees too) needs a select default, a ctx.Done/stop " +
		"arm, a buffered slot, or a stop-family receive",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !pass.OnServingPath() {
		return nil
	}
	obsGo := pass.Prog.Object("repro/internal/obs", "Go")
	pass.EachFile(func(name string, f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := pass.Prog.FuncOf(pass.Pkg, fd)
			if fi == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					checkSpawn(pass, fi, n.Call, n.Pos())
				case *ast.CallExpr:
					// Managed spawns: obs.Go(reg, name, fn).
					if fn := analysis.Callee(pass.Pkg.Info, n); fn != nil && fn == obsGo {
						if lit, ok := n.Args[len(n.Args)-1].(*ast.FuncLit); ok {
							checkBody(pass, fi, lit.Body)
						}
					}
				}
				return true
			})
		}
	})
	return nil
}

// checkSpawn handles a `go` statement: literals are walked directly,
// named targets are judged by their summaries.
func checkSpawn(pass *analysis.Pass, encl *analysis.FuncInfo, call *ast.CallExpr, pos token.Pos) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		checkBody(pass, encl, lit.Body)
		return
	}
	// An unresolved target stays quiet here: gospawn already demands
	// managed spawns.
	for _, callee := range pass.Prog.Resolve(encl, call) {
		if witness := leakWitness(pass.Prog, callee, pass.IgnoreAnnotations); witness != "" {
			pass.Reportf(pos,
				"goroutine runs %s, which %s with no guaranteed counterpart and no ctx.Done/stop arm — "+
					"add an exit arm or annotate //llmdm:allow goleak",
				callee, witness)
			return
		}
	}
}

// checkBody walks a goroutine literal's body with the summary walker's
// channel-op semantics and reports each unguarded op; calls into
// summarized functions are judged by leakWitness.
func checkBody(pass *analysis.Pass, encl *analysis.FuncInfo, body *ast.BlockStmt) {
	sum := pass.Prog.SummarizeBlock(encl, body)
	for _, op := range sum.ChanOps {
		if opAccepted(pass.Prog, op, pass.IgnoreAnnotations) {
			continue
		}
		verb := "receive from"
		if op.Send {
			verb = "send on"
		}
		pass.Reportf(op.Pos,
			"goroutine %s %q can park forever: no select default, no ctx.Done/stop arm, and no "+
				"buffered slot observed for it — add an exit arm or annotate //llmdm:allow goleak",
			verb, op.Name)
	}
	for _, c := range sum.Calls {
		for _, callee := range c.Callees {
			if witness := leakWitness(pass.Prog, callee, pass.IgnoreAnnotations); witness != "" {
				pass.Reportf(c.Pos,
					"goroutine calls %s, which %s with no guaranteed counterpart and no ctx.Done/stop arm — "+
						"add an exit arm or annotate //llmdm:allow goleak",
					callee, witness)
				break
			}
		}
	}
}

// opAccepted applies the non-blocking escape hatches to one channel op.
func opAccepted(prog *analysis.Program, op analysis.ChanOp, ignoreAnnots bool) bool {
	if op.Waived && !ignoreAnnots {
		return true
	}
	if op.Send {
		return prog.BufferedChan(op.Chan)
	}
	// Receives: waiting on a stop/done channel or a timer IS the exit.
	if op.Name == "C" || op.Name == "Done" || op.Name == "Err" || analysis.IsStopChanName(op.Name) {
		return true
	}
	// Releasing a semaphore slot.
	if prog.BufferedChan(op.Chan) {
		if ch, ok := op.Chan.Type().Underlying().(*types.Chan); ok {
			elem, ok := ch.Elem().Underlying().(*types.Struct)
			return ok && elem.NumFields() == 0
		}
	}
	return false
}

// leakWitness reports a human description of the first unguarded channel
// op reachable from f (through resolvable callees), "" when f is clean.
// Memoized program-wide (separately per annotation mode); cycles resolve
// to clean-in-progress.
func leakWitness(prog *analysis.Program, f *analysis.FuncInfo, ignoreAnnots bool) string {
	stashKey := "goleak.witness"
	if ignoreAnnots {
		stashKey = "goleak.witness.ignore"
	}
	memo, ok := prog.Stash[stashKey].(map[*analysis.FuncInfo]*string)
	if !ok {
		memo = map[*analysis.FuncInfo]*string{}
		prog.Stash[stashKey] = memo
	}
	if w, ok := memo[f]; ok {
		if w == nil {
			return "" // in-progress (cycle): assume clean
		}
		return *w
	}
	memo[f] = nil
	witness := ""
	sum := prog.Summary(f)
	for _, op := range sum.ChanOps {
		if opAccepted(prog, op, ignoreAnnots) {
			continue
		}
		verb := "receives from"
		if op.Send {
			verb = "sends on"
		}
		witness = fmt.Sprintf("%s %q", verb, op.Name)
		break
	}
	if witness == "" {
	calls:
		for _, c := range sum.Calls {
			for _, callee := range c.Callees {
				if sub := leakWitness(prog, callee, ignoreAnnots); sub != "" {
					witness = fmt.Sprintf("calls %s, which %s", callee, sub)
					break calls
				}
			}
		}
	}
	memo[f] = &witness
	return witness
}

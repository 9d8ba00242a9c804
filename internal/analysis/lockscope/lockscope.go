// Package lockscope forbids blocking calls while a mutex is held.
//
// The serving path's concurrency design (see internal/proxy's package
// doc) keeps locks around map bookkeeping only; model calls, channel
// operations, sleeps and HTTP round-trips must run outside every
// critical section, or one slow upstream serializes the whole stack —
// the cost/latency failure mode the paper's Section III is about.
//
// lockscope walks nothing itself: it reads the function summaries
// (analysis.Program.Summary for each declaration, SummarizeBlock for
// each function literal), whose walker is the module's one
// branch-sensitive lock tracker — Lock/RLock→Unlock/RUnlock regions per
// body, locks in locals and parameters included, a deferred Unlock
// holding to function end, diverging arms discarding their releases so
// an `unlock; return` guard does not mask the main path. It reports,
// while a lock may be held:
//
//   - channel sends and receives, in a select too unless it has a
//     default clause (an exit arm bounds a goroutine's wait, not the
//     time the lock is held);
//   - model-call methods: Complete, Generate, GenerateBatch, Submit;
//   - time.Sleep, sync.WaitGroup-style .Wait(), and net/http calls
//     (analysis.Program.BlockingCall is the one vocabulary);
//   - calls into functions whose summaries carry a direct, unwaived
//     blocking op (one call-graph level: the blocking op hidden one
//     frame down is the same serialization bug) — through an interface,
//     into any implementation in the program that does.
//
// Deferred calls run at function exit and are not reported. A
// deliberate violation (e.g. sched's bounded enqueue under its
// close-gate RLock) is annotated //llmdm:allow lockscope with its
// justification.
package lockscope

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockscope rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc: "forbid blocking calls (model calls, channel ops, sleeps, net/http, Wait) " +
		"while a sync.Mutex/RWMutex is held",
	Run: run,
}

func run(pass *analysis.Pass) error {
	pass.EachFile(func(_ string, f *ast.File) {
		for _, decl := range f.Decls {
			// A literal outside any function resolves calls in the package.
			encl := &analysis.FuncInfo{Pkg: pass.Pkg, File: f}
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fi := pass.Prog.FuncOf(pass.Pkg, fd); fi != nil {
					encl = fi
					report(pass, pass.Prog.Summary(fi))
				}
			}
			analysis.Inspect(decl, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					report(pass, pass.Prog.SummarizeBlock(encl, lit.Body))
				}
				return true
			})
		}
	})
	return nil
}

// report flags one body's blocking ops and blocking calls made while a
// lock may be held. An op waived at its own site (//llmdm:allow
// lockscope) is honored for callers too.
func report(pass *analysis.Pass, sum *analysis.Summary) {
	direct := map[token.Pos]bool{}
	for _, op := range sum.Blocking {
		direct[op.Pos] = true
		if len(op.Locks) > 0 {
			flag(pass, op.Pos, op.What, op.Locks)
		}
	}
	for _, c := range sum.Calls {
		// A call that is itself a blocking op was reported as that op.
		if len(c.Locks) == 0 || c.Deferred || direct[c.Pos] {
			continue
		}
	callees:
		for _, callee := range c.Callees {
			for _, op := range pass.Prog.Summary(callee).Blocking {
				if !op.Waived || pass.IgnoreAnnotations {
					flag(pass, c.Pos, "call into "+callee.String()+" (which does "+op.What+")", c.Locks)
					break callees
				}
			}
		}
	}
}

func flag(pass *analysis.Pass, pos token.Pos, what string, locks []analysis.HeldLock) {
	held := make([]string, len(locks))
	for i, l := range locks {
		held[i] = l.Expr + " (locked at line " + strconv.Itoa(pass.Pkg.Fset.Position(l.Pos).Line) + ")"
	}
	pass.Reportf(pos, "blocking %s while %s held: move it outside the critical section or annotate //llmdm:allow lockscope",
		what, strings.Join(held, ", "))
}

// Package lockscope forbids blocking calls while a mutex is held.
//
// The serving path's concurrency design (see internal/proxy's package
// doc) keeps locks around map bookkeeping only; model calls, channel
// operations, sleeps and HTTP round-trips must run outside every
// critical section, or one slow upstream serializes the whole stack —
// the cost/latency failure mode the paper's Section III is about.
//
// The analyzer tracks Lock/RLock→Unlock/RUnlock regions within each
// function body (a deferred Unlock holds to function end) and reports,
// inside a held region:
//
//   - channel sends and receives (except under a select with a default
//     clause, which cannot block);
//   - model-call methods: Complete, Generate, GenerateBatch, Submit;
//   - time.Sleep, sync.WaitGroup-style .Wait(), and net/http calls
//     (analysis.Program.BlockingCall is the one vocabulary, shared with
//     the summaries);
//   - calls into functions whose summaries carry a direct, unwaived
//     blocking op (one call-graph level: the blocking op hidden one
//     frame down is the same serialization bug) — through an interface,
//     into any implementation in the program that does.
//
// Tracking is a branch-sensitive may-hold approximation (no full CFG):
// if/select/switch arms are analyzed with cloned lock state, an arm
// ending in return/panic/break discards its releases, and the states of
// the surviving arms are unioned — so an early-return `unlock; return`
// guard does not mask a send performed under the lock on the main path.
// A deliberate violation (e.g. sched's bounded enqueue under its
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
	pass.EachFile(func(name string, f *ast.File) {
		for _, decl := range f.Decls {
			var fi *analysis.FuncInfo
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fi = pass.Prog.FuncOf(pass.Pkg, fd)
			}
			analysis.Inspect(decl, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body != nil {
						scanBody(pass, fi, fn.Body)
					}
				case *ast.FuncLit:
					scanBody(pass, fi, fn.Body)
				}
				return true
			})
		}
	})
	return nil
}

// scanner walks one function body in source order, tracking which lock
// receivers are currently held.
type scanner struct {
	pass *analysis.Pass
	fi   *analysis.FuncInfo        // enclosing declaration, for call resolution
	held map[string]token.Position // lock expr -> acquire position
}

func scanBody(pass *analysis.Pass, fi *analysis.FuncInfo, body *ast.BlockStmt) {
	s := &scanner{pass: pass, fi: fi, held: map[string]token.Position{}}
	s.stmts(body.List)
}

type lockKind int

const (
	notLock lockKind = iota
	acquire
	release
)

// lockOp classifies expr as recv.Lock/RLock (acquire) or
// recv.Unlock/RUnlock (release).
func lockOp(expr ast.Expr) (recv string, kind lockKind) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return "", notLock
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", notLock
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return analysis.ExprString(sel.X), acquire
	case "Unlock", "RUnlock":
		return analysis.ExprString(sel.X), release
	}
	return "", notLock
}

func (s *scanner) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *scanner) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.ExprStmt:
		if recv, kind := lockOp(st.X); kind != notLock {
			if kind == acquire {
				s.held[recv] = s.pass.Pkg.Fset.Position(st.Pos())
			} else {
				delete(s.held, recv)
			}
			return
		}
		s.expr(st.X)
	case *ast.DeferStmt:
		// `defer recv.Unlock()` pins the critical section to the function
		// end: the held state persists, which is exactly right. Other
		// deferred calls run after the body; skip them.
		return
	case *ast.GoStmt:
		// The spawn itself never blocks; the goroutine body is its own
		// unit (scanned via the FuncLit case of run).
	case *ast.SendStmt:
		s.blocking(st.Arrow, "channel send")
		s.expr(st.Chan)
		s.expr(st.Value)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e)
		}
		for _, e := range st.Lhs {
			s.expr(e)
		}
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				s.expr(e)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e)
		}
	case *ast.IfStmt:
		s.stmt(st.Init)
		s.expr(st.Cond)
		arms := [][]ast.Stmt{st.Body.List}
		if st.Else != nil {
			arms = append(arms, []ast.Stmt{st.Else})
		}
		// Without an else, the condition-false path carries the pre-state.
		s.mergeArms(arms, st.Else == nil)
	case *ast.ForStmt:
		s.stmt(st.Init)
		if st.Cond != nil {
			s.expr(st.Cond)
		}
		s.stmt(st.Post)
		// The body runs zero or more times; after the loop either state
		// may hold.
		s.mergeArms([][]ast.Stmt{st.Body.List}, true)
	case *ast.RangeStmt:
		s.expr(st.X)
		s.mergeArms([][]ast.Stmt{st.Body.List}, true)
	case *ast.BlockStmt:
		s.stmts(st.List)
	case *ast.SwitchStmt:
		s.stmt(st.Init)
		if st.Tag != nil {
			s.expr(st.Tag)
		}
		s.mergeArms(analysis.CaseArms(st.Body), !analysis.HasDefault(st.Body))
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init)
		s.stmt(st.Assign)
		s.mergeArms(analysis.CaseArms(st.Body), !analysis.HasDefault(st.Body))
	case *ast.SelectStmt:
		// A select with a default clause cannot block on its comm ops.
		hasDefault := false
		for _, c := range st.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		var arms [][]ast.Stmt
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil && !hasDefault {
				s.stmt(cc.Comm)
			}
			arms = append(arms, cc.Body)
		}
		// Exactly one arm runs; there is no fall-through pre-state path.
		s.mergeArms(arms, false)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.IncDecStmt:
		s.expr(st.X)
	}
}

// mergeArms analyzes each arm of a branching statement under a clone of
// the current lock state and replaces s.held with the union of the
// states of the arms that fall through (may-hold). Arms that diverge —
// end in return, panic, break or continue — discard their releases, so
// an `unlock; return` guard branch cannot mask a blocking call performed
// under the lock on the main path. includePre adds the pre-state as a
// path of its own (if without else, switch without default, loop body
// running zero times).
func (s *scanner) mergeArms(arms [][]ast.Stmt, includePre bool) {
	pre := cloneState(s.held)
	var states []map[string]token.Position
	if includePre {
		states = append(states, pre)
	}
	for _, arm := range arms {
		sub := &scanner{pass: s.pass, fi: s.fi, held: cloneState(pre)}
		sub.stmts(arm)
		if !analysis.Terminates(arm) {
			states = append(states, sub.held)
		}
	}
	merged := map[string]token.Position{}
	for _, st := range states {
		for k, v := range st {
			if _, ok := merged[k]; !ok {
				merged[k] = v
			}
		}
	}
	s.held = merged
}

func cloneState(m map[string]token.Position) map[string]token.Position {
	c := make(map[string]token.Position, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// expr scans an expression subtree for blocking operations.
func (s *scanner) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate unit
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.blocking(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if verb := s.pass.Prog.BlockingCall(s.pass.Pkg.Info, n); verb != "" {
				s.blocking(n.Pos(), verb)
			} else {
				s.calleeBlocking(n)
			}
		}
		return true
	})
}

// calleeBlocking consults the call graph one level deep: a call made
// under a lock into a function whose own body provably blocks is the
// same serialization bug with the blocking op hidden one frame down.
// Only direct (non-transitive) blocking ops count, and an op waived at
// its own site (//llmdm:allow lockscope) is honored here too — the
// justification covers interprocedural callers.
func (s *scanner) calleeBlocking(call *ast.CallExpr) {
	if len(s.held) == 0 || s.fi == nil {
		return
	}
	for _, callee := range s.pass.Prog.Resolve(s.fi, call) {
		for _, op := range s.pass.Prog.Summary(callee).Blocking {
			if op.Waived && !s.pass.IgnoreAnnotations {
				continue
			}
			s.blocking(call.Pos(), "call into "+callee.String()+" (which does "+op.What+")")
			return
		}
	}
}

func (s *scanner) blocking(pos token.Pos, what string) {
	if len(s.held) == 0 {
		return
	}
	var locks []string
	for recv, at := range s.held {
		locks = append(locks, recv+" (locked at line "+strconv.Itoa(at.Line)+")")
	}
	s.pass.Reportf(pos, "blocking %s while %s held: move it outside the critical section or annotate //llmdm:allow lockscope",
		what, strings.Join(locks, ", "))
}

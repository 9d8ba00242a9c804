// Function summaries: per-function facts computed once per Program and
// consumed by the interprocedural analyzers (lockorder, reslifecycle,
// goleak) and by the summary-sharpened per-function ones.
//
// A summary records, for one declaration body:
//
//   - Acquires: every mutex acquire with the locks already held at that
//     point, each lock being the *types.Var of the mutex field or
//     package-level variable (branch-sensitive may-hold, the same model
//     as lockscope: cloned arm states, diverging arms discard releases,
//     deferred unlocks hold to function end);
//   - Calls: every call site with its may-held lock set and the
//     declarations it resolves to (several, through an interface) — the
//     call-graph edges;
//   - Blocking: direct blocking operations in lockscope's vocabulary
//     (chan ops, Sleep, Wait, model calls, net/http), minus sites
//     waived with //llmdm:allow lockscope — a waiver's justification
//     ("takes no locks, joined immediately") covers callers too;
//   - ChanOps: channel sends/receives that are *not* guarded by a
//     select with a default or a ctx.Done()/stop-family arm, minus
//     //llmdm:allow goleak waivers — goroutine-leak raw material;
//   - context threading (the first named context.Context parameter and
//     whether any such parameter is used: ctxflow's facts), deferred
//     recover(), stop-signal references (gospawn's facts).
//
// Function literals are separate execution units and are skipped here;
// goleak walks goroutine literals directly.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AcquireSite is one mutex acquire.
type AcquireSite struct {
	// Lock is the mutex field or package-level variable acquired; nil
	// for a lock held in a local, which never enters the global graph.
	Lock *types.Var
	// Expr is the source form ("s.mu") for diagnostics.
	Expr string
	Pos  token.Pos
	// Read marks RLock.
	Read bool
	// Held are the locks already held at this acquire, in declaration
	// order.
	Held []*types.Var
}

// CallSite is one call expression with its lock context.
type CallSite struct {
	// Callees are the resolved targets (see Program.Resolve), nil when
	// unresolved.
	Callees []*FuncInfo
	// Expr renders the call target for diagnostics.
	Expr string
	Pos  token.Pos
	// Held are the locks that may be held at the call.
	Held []*types.Var
}

// BlockOp is one direct blocking operation (lockscope vocabulary).
type BlockOp struct {
	Pos  token.Pos
	What string
	// Waived: the op carries //llmdm:allow lockscope. Consumers honor
	// the waiver unless running with IgnoreAnnotations — the flag stays
	// in the summary so load-bearing tests can resurface the site.
	Waived bool
}

// ChanOp is one unguarded channel operation (goleak raw material).
type ChanOp struct {
	Pos  token.Pos
	Send bool
	// Name is the channel's last path element ("out" for it.out); Chan
	// the variable or field holding it (the container, for an element of
	// a slice or map of channels), nil for a computed channel.
	Name string
	Chan *types.Var
	// Waived: the op carries //llmdm:allow goleak (see BlockOp.Waived).
	Waived bool
}

// Summary is the per-function fact sheet.
type Summary struct {
	Func     *FuncInfo
	Acquires []AcquireSite
	Calls    []CallSite
	Blocking []BlockOp
	ChanOps  []ChanOp

	// CtxParam is the first named (non-underscore) context.Context
	// parameter, nil without one; CtxUsed: the body refers to such a
	// parameter.
	CtxParam *types.Var
	CtxUsed  bool
	// Recovers: body installs a deferred recover(). RefsStop: body
	// references a ctx/stop/done-style identifier.
	Recovers bool
	RefsStop bool
}

// Summary computes (and caches) f's summary.
func (pr *Program) Summary(f *FuncInfo) *Summary {
	if s, ok := pr.summaries[f]; ok {
		return s
	}
	s := &Summary{Func: f}
	pr.summaries[f] = s
	d := f.Decl
	if d.Body == nil {
		return s
	}
	params := f.Obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if p.Name() == "" || p.Name() == "_" || pr.ctxType == nil || NamedObj(p.Type()) != pr.ctxType {
			continue
		}
		if s.CtxParam == nil {
			s.CtxParam = p
		}
		ast.Inspect(d.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && f.Pkg.Info.Uses[id] == p {
				s.CtxUsed = true
			}
			return !s.CtxUsed
		})
	}
	s.Recovers = HasDeferredRecover(f.Pkg.Info, d.Body)
	s.RefsStop = RefsStopSignal(d.Body)
	w := &sumWalker{pr: pr, f: f, sum: s, held: map[*types.Var]token.Pos{}}
	w.stmts(d.Body.List)
	return s
}

// SummarizeBlock runs the summary walker over one statement block (e.g.
// a goroutine literal's body) in f's resolution scope. The result is
// not cached: literal bodies are not declarations.
func (pr *Program) SummarizeBlock(f *FuncInfo, body *ast.BlockStmt) *Summary {
	s := &Summary{Func: f}
	w := &sumWalker{pr: pr, f: f, sum: s, held: map[*types.Var]token.Pos{}}
	w.stmts(body.List)
	return s
}

// lockOf identifies the receiver expression of a Lock/Unlock call: the
// mutex field ("s.mu") or package-level variable ("mu") it denotes. A
// mutex in a local or a parameter, or one reached through an index or a
// call, is nil.
func (pr *Program) lockOf(info *types.Info, e ast.Expr) *types.Var {
	v := VarOf(info, e)
	if v == nil || !(v.IsField() || v.Parent() == v.Pkg().Scope()) {
		return nil
	}
	if _, named := pr.lockNames[v]; !named {
		name := v.Name()
		if sel, ok := unwrap(e).(*ast.SelectorExpr); ok && v.IsField() {
			if tn := NamedObj(info.TypeOf(sel.X)); tn != nil {
				name = tn.Name() + "." + name
			}
		}
		pr.lockNames[v] = v.Pkg().Name() + "." + name
	}
	return v
}

// LockName renders a lock a summary recorded for diagnostics:
// "pkg.Type.field" for a struct's mutex (the type it was first seen
// locked through), "pkg.var" for a package-level one.
func (pr *Program) LockName(v *types.Var) string { return pr.lockNames[v] }

// sumWalker is the branch-sensitive body walk behind Summary. It mirrors
// lockscope's scanner (same arm-cloning and divergence rules) while
// recording acquires, call sites, blocking ops and chan ops.
type sumWalker struct {
	pr   *Program
	f    *FuncInfo
	sum  *Summary
	held map[*types.Var]token.Pos
}

func (w *sumWalker) heldKeys() []*types.Var {
	if len(w.held) == 0 {
		return nil
	}
	keys := make([]*types.Var, 0, len(w.held))
	for k := range w.held {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Pos() < keys[j].Pos() })
	return keys
}

func (w *sumWalker) stmts(list []ast.Stmt) {
	for _, st := range list {
		w.stmt(st)
	}
}

func (w *sumWalker) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.ExprStmt:
		if w.lockStmt(st.X) {
			return
		}
		w.expr(st.X, false)
	case *ast.DeferStmt:
		// A deferred Unlock pins the critical section to function end —
		// leave held untouched. A deferred release/Close is recorded as a
		// call site (reslifecycle wants it); other deferred work runs
		// after the body.
		w.recordCall(st.Call)
	case *ast.GoStmt:
		// The spawn doesn't block; the body is a separate unit.
	case *ast.SendStmt:
		w.chanOp(st.Arrow, true, st.Chan, false)
		w.expr(st.Chan, true)
		w.expr(st.Value, false)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.expr(e, false)
		}
		for _, e := range st.Lhs {
			w.expr(e, true)
		}
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, false)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.expr(e, false)
		}
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.expr(st.Cond, false)
		arms := [][]ast.Stmt{st.Body.List}
		if st.Else != nil {
			arms = append(arms, []ast.Stmt{st.Else})
		}
		w.mergeArms(arms, st.Else == nil)
	case *ast.ForStmt:
		w.stmt(st.Init)
		if st.Cond != nil {
			w.expr(st.Cond, false)
		}
		w.stmt(st.Post)
		w.mergeArms([][]ast.Stmt{st.Body.List}, true)
	case *ast.RangeStmt:
		w.expr(st.X, false)
		w.mergeArms([][]ast.Stmt{st.Body.List}, true)
	case *ast.BlockStmt:
		w.stmts(st.List)
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		if st.Tag != nil {
			w.expr(st.Tag, false)
		}
		w.mergeArms(CaseArms(st.Body), !HasDefault(st.Body))
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		w.mergeArms(CaseArms(st.Body), !HasDefault(st.Body))
	case *ast.SelectStmt:
		guarded := selectIsGuarded(st)
		var arms [][]ast.Stmt
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.commOp(cc.Comm, guarded)
			}
			arms = append(arms, cc.Body)
		}
		w.mergeArms(arms, false)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.IncDecStmt:
		w.expr(st.X, false)
	}
}

// lockStmt handles recv.Lock/RLock/Unlock/RUnlock expression statements,
// reporting whether the statement was consumed.
func (w *sumWalker) lockStmt(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock := w.pr.lockOf(w.f.Pkg.Info, sel.X)
		w.sum.Acquires = append(w.sum.Acquires, AcquireSite{
			Lock: lock,
			Expr: ExprString(sel.X),
			Pos:  call.Pos(),
			Read: sel.Sel.Name == "RLock",
			Held: w.heldKeys(),
		})
		if lock != nil {
			w.held[lock] = call.Pos()
		}
		return true
	case "Unlock", "RUnlock":
		if lock := w.pr.lockOf(w.f.Pkg.Info, sel.X); lock != nil {
			delete(w.held, lock)
		}
		return true
	}
	return false
}

// commOp records the comm clause of a select: guarded ops never appear
// in ChanOps, but blocking classification matches lockscope (a select
// without default still blocks).
func (w *sumWalker) commOp(st ast.Stmt, guarded bool) {
	switch st := st.(type) {
	case *ast.SendStmt:
		w.chanOp(st.Arrow, true, st.Chan, guarded)
	case *ast.ExprStmt:
		if u, ok := st.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.chanOp(u.Pos(), false, u.X, guarded)
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				w.chanOp(u.Pos(), false, u.X, guarded)
			}
		}
	}
}

func (w *sumWalker) chanOp(pos token.Pos, send bool, ch ast.Expr, guarded bool) {
	if guarded {
		return
	}
	w.sum.ChanOps = append(w.sum.ChanOps, ChanOp{
		Pos: pos, Send: send, Name: lastName(ch), Chan: chanVar(w.f.Pkg.Info, ch),
		Waived: w.waived(pos, "goleak"),
	})
	what := "channel receive"
	if send {
		what = "channel send"
	}
	w.blocking(pos, what)
}

// mergeArms mirrors lockscope's may-hold union over branch arms.
func (w *sumWalker) mergeArms(arms [][]ast.Stmt, includePre bool) {
	pre := cloneHeld(w.held)
	var states []map[*types.Var]token.Pos
	if includePre {
		states = append(states, pre)
	}
	for _, arm := range arms {
		sub := &sumWalker{pr: w.pr, f: w.f, sum: w.sum, held: cloneHeld(pre)}
		sub.stmts(arm)
		if !Terminates(arm) {
			states = append(states, sub.held)
		}
	}
	merged := map[*types.Var]token.Pos{}
	for _, st := range states {
		for k, v := range st {
			if _, ok := merged[k]; !ok {
				merged[k] = v
			}
		}
	}
	w.held = merged
}

// expr records calls, chan receives and blocking ops in an expression
// subtree. lhs marks assignment targets (whose index exprs still run).
func (w *sumWalker) expr(e ast.Expr, lhs bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.chanOp(n.Pos(), false, n.X, false)
				w.expr(n.X, false)
				return false
			}
		case *ast.CallExpr:
			w.recordCall(n)
			if verb := w.pr.BlockingCall(w.f.Pkg.Info, n); verb != "" {
				w.blocking(n.Pos(), verb)
			}
		}
		return true
	})
}

func (w *sumWalker) recordCall(call *ast.CallExpr) {
	// Lock ops, builtins and conversions are not call-graph edges.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) == 0 {
		switch sel.Sel.Name {
		case "Lock", "RLock", "Unlock", "RUnlock":
			return
		}
	}
	if tv := w.f.Pkg.Info.Types[call.Fun]; tv.IsBuiltin() || tv.IsType() {
		return
	}
	w.sum.Calls = append(w.sum.Calls, CallSite{
		Callees: w.pr.Resolve(w.f, call),
		Expr:    ExprString(call.Fun),
		Pos:     call.Pos(),
		Held:    w.heldKeys(),
	})
}

func (w *sumWalker) blocking(pos token.Pos, what string) {
	w.sum.Blocking = append(w.sum.Blocking, BlockOp{
		Pos: pos, What: what, Waived: w.waived(pos, "lockscope"),
	})
}

// waived reports whether pos carries //llmdm:allow <analyzer> (same
// line or the line above) — waived sites are dropped from the summary
// so the waiver's justification covers interprocedural callers too.
func (w *sumWalker) waived(pos token.Pos, analyzer string) bool {
	return w.pr.Waived(w.f.Pkg, pos, analyzer)
}

// BlockingCall classifies a call as one of the operations that must
// not run under a lock, returning a description or "": a model call (by
// method name: Complete, Generate, GenerateBatch, Submit — the
// project's vocabulary across llm, cascade, sched and proxy), a .Wait(),
// time.Sleep and the package-level functions of net/http (by object, so
// under any import name).
func (pr *Program) BlockingCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Complete", "Generate", "GenerateBatch", "Submit":
		return "model call ." + sel.Sel.Name
	case "Wait":
		return ExprString(sel.X) + ".Wait()"
	}
	fn := Callee(info, call)
	if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch {
	case fn == pr.sleep:
		return "time.Sleep"
	case fn.Pkg() == pr.netHTTP:
		return "net/http call http." + fn.Name()
	}
	return ""
}

// selectIsGuarded reports whether a select statement cannot park
// forever on its data arms: it has a default clause, or an arm
// receiving from a context Done()/Err() channel, a stop-family channel,
// or a timer/ticker .C.
func selectIsGuarded(st *ast.SelectStmt) bool {
	for _, c := range st.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default
		}
		if recvIsExitArm(cc.Comm) {
			return true
		}
	}
	return false
}

// recvIsExitArm classifies one comm clause as an exit signal: a receive
// from ctx.Done(), a stop/done/quit-named channel, or a timer channel.
func recvIsExitArm(st ast.Stmt) bool {
	var ch ast.Expr
	switch st := st.(type) {
	case *ast.ExprStmt:
		if u, ok := st.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			ch = u.X
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				ch = u.X
			}
		}
	}
	if ch == nil {
		return false
	}
	if call, ok := ch.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Done" || sel.Sel.Name == "Err") {
			return true
		}
		return false
	}
	name := lastName(ch)
	if name == "C" { // time.Timer/Ticker channels fire eventually
		return true
	}
	return IsStopChanName(name)
}

// IsStopChanName matches the stop/done/quit channel naming family.
func IsStopChanName(name string) bool {
	switch name {
	case "stop", "done", "quit", "closing", "closed", "exit", "cancel":
		return true
	}
	lower := strings.ToLower(name)
	for _, frag := range []string{"stop", "done", "quit", "close", "exit", "cancel"} {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	return false
}

func cloneHeld(m map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	c := make(map[*types.Var]token.Pos, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// CaseArms lists the clause bodies of a switch or type-switch body.
func CaseArms(body *ast.BlockStmt) [][]ast.Stmt {
	var arms [][]ast.Stmt
	for _, c := range body.List {
		arms = append(arms, c.(*ast.CaseClause).Body)
	}
	return arms
}

// HasDefault reports whether a switch or type-switch body has a default
// clause.
func HasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if c.(*ast.CaseClause).List == nil {
			return true
		}
	}
	return false
}

// Terminates reports whether a statement list visibly diverges: its
// last statement is a return, panic, or branch (break/continue/goto).
func Terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.LabeledStmt:
		return Terminates([]ast.Stmt{last.Stmt})
	case *ast.BlockStmt:
		return Terminates(last.List)
	}
	return false
}

// HasDeferredRecover reports whether body installs a deferred
// recover() (directly or via a deferred literal).
func HasDeferredRecover(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		ast.Inspect(d.Call, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("recover") {
					found = true
				}
			}
			return true
		})
		return true
	})
	return found
}

// RefsStopSignal reports whether n references a ctx/stop/done-family
// identifier (gospawn's cancellability heuristic: the family is a
// naming convention, so this one is about spelling on purpose).
func RefsStopSignal(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && isCtxOrStopIdent(id.Name) {
			found = true
		}
		return !found
	})
	return found
}

func isCtxOrStopIdent(name string) bool {
	switch name {
	case "ctx", "context", "stop", "done", "quit", "closing", "closed":
		return true
	}
	for _, frag := range []string{"Ctx", "ctx", "Stop", "stop", "Done", "done", "Quit", "quit"} {
		if len(name) > len(frag) && strings.Contains(name, frag) {
			return true
		}
	}
	return false
}

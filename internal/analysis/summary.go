// Function summaries: per-function facts computed once per Program and
// consumed by the interprocedural analyzers (lockorder, reslifecycle,
// goleak) and by the summary-sharpened per-function ones.
//
// The summary walker is the module's one lock walk: it tracks which
// locks may be held, branch-sensitively (each arm of an if, switch,
// select or loop starts from a clone of the state before it, an arm
// that ends in return, panic or a branch discards its releases, the
// surviving arms' states are unioned, a deferred Unlock holds to
// function end), and records along the way, for one body:
//
//   - Acquires: every mutex acquire with the locks already held at that
//     point, each lock being the *types.Var of the mutex field or
//     package-level variable (a mutex in a local or a parameter is held
//     all the same, but never enters these sets or the global graph);
//   - Calls: every call site with its may-held locks and the
//     declarations it resolves to (several, through an interface) — the
//     call-graph edges;
//   - Blocking: direct blocking operations (chan ops, Sleep, Wait, model
//     calls, net/http), each with every lock that may be held there —
//     lockscope reports the held ones; Waived marks //llmdm:allow
//     lockscope sites, whose justification covers callers too;
//   - ChanOps: channel sends/receives that are *not* guarded by a
//     select with a default or a ctx.Done()/stop-family arm, with
//     //llmdm:allow goleak waivers marked — goroutine-leak raw material;
//   - context threading (the first named context.Context parameter and
//     whether any such parameter is used: ctxflow's facts), deferred
//     recover(), stop-signal references (gospawn's facts).
//
// Function literals are separate execution units and are skipped here;
// lockscope and goleak summarize literal bodies with SummarizeBlock.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
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

// HeldLock is one lock that may be held at a call or blocking op.
type HeldLock struct {
	// Expr is the receiver's source form ("s.mu"), the walker's key: a
	// Lock of one receiver is released by an Unlock of the same one.
	Expr string
	// Lock is the mutex field or package-level variable; nil for a
	// local, a parameter or a receiver reached through a call or index.
	Lock *types.Var
	// Pos is the acquire.
	Pos token.Pos
}

// CallSite is one call expression with its lock context.
type CallSite struct {
	// Callees are the resolved targets (see Program.Resolve), nil when
	// unresolved.
	Callees []*FuncInfo
	// Expr renders the call target for diagnostics.
	Expr string
	Pos  token.Pos
	// Held are the lock fields and variables that may be held at the
	// call, in declaration order; Locks every held lock, in acquire order.
	Held  []*types.Var
	Locks []HeldLock
	// Deferred: a defer statement's call, which runs at function exit.
	Deferred bool
}

// BlockOp is one direct blocking operation.
type BlockOp struct {
	Pos  token.Pos
	What string
	// Locks may be held at the op, in acquire order.
	Locks []HeldLock
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
	w := &sumWalker{pr: pr, f: f, sum: s, held: map[string]HeldLock{}}
	w.stmts(d.Body.List)
	return s
}

// SummarizeBlock runs the summary walker over one statement block (e.g.
// a goroutine literal's body) in f's resolution scope — only f.Pkg is
// read, so a literal outside any function passes a FuncInfo with only
// Pkg set. The result is not cached: literal bodies are not
// declarations.
func (pr *Program) SummarizeBlock(f *FuncInfo, body *ast.BlockStmt) *Summary {
	s := &Summary{Func: f}
	w := &sumWalker{pr: pr, f: f, sum: s, held: map[string]HeldLock{}}
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

// sumWalker is the branch-sensitive body walk behind Summary: it tracks
// the may-held locks, keyed by receiver expression, while recording
// acquires, call sites, blocking ops and chan ops.
type sumWalker struct {
	pr   *Program
	f    *FuncInfo
	sum  *Summary
	held map[string]HeldLock
}

// heldVars are the held lock fields and variables, in declaration order.
func (w *sumWalker) heldVars() []*types.Var {
	var vars []*types.Var
	for _, h := range w.held {
		if h.Lock != nil && !slices.Contains(vars, h.Lock) {
			vars = append(vars, h.Lock)
		}
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	return vars
}

// locks lists every held lock, in acquire order.
func (w *sumWalker) locks() []HeldLock {
	if len(w.held) == 0 {
		return nil
	}
	out := make([]HeldLock, 0, len(w.held))
	for _, h := range w.held {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
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
		w.expr(st.X)
	case *ast.DeferStmt:
		// A deferred Unlock pins the critical section to function end —
		// leave held untouched. A deferred release/Close is recorded as a
		// call site (reslifecycle wants it); other deferred work runs
		// after the body.
		w.recordCall(st.Call, true)
	case *ast.GoStmt:
		// The spawn doesn't block; the body is a separate unit.
	case *ast.SendStmt:
		w.chanOp(st.Arrow, true, st.Chan, false, true)
		w.expr(st.Chan)
		w.expr(st.Value)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.expr(e)
		}
		for _, e := range st.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.expr(st.Cond)
		arms := [][]ast.Stmt{st.Body.List}
		if st.Else != nil {
			arms = append(arms, []ast.Stmt{st.Else})
		}
		// Without an else, the condition-false path carries the pre-state.
		w.mergeArms(arms, st.Else == nil)
	case *ast.ForStmt:
		w.stmt(st.Init)
		w.expr(st.Cond)
		w.stmt(st.Post)
		w.mergeArms([][]ast.Stmt{st.Body.List}, true)
	case *ast.RangeStmt:
		w.expr(st.X)
		w.mergeArms([][]ast.Stmt{st.Body.List}, true)
	case *ast.BlockStmt:
		w.stmts(st.List)
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		w.expr(st.Tag)
		w.mergeArms(CaseArms(st.Body), !HasDefault(st.Body))
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		w.mergeArms(CaseArms(st.Body), !HasDefault(st.Body))
	case *ast.SelectStmt:
		hasDefault, exitArm := selectGuards(st)
		var arms [][]ast.Stmt
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			w.commOp(cc.Comm, hasDefault || exitArm, !hasDefault)
			arms = append(arms, cc.Body)
		}
		// Exactly one arm runs; there is no fall-through pre-state path.
		w.mergeArms(arms, false)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.IncDecStmt:
		w.expr(st.X)
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
	expr := ExprString(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock := w.pr.lockOf(w.f.Pkg.Info, sel.X)
		w.sum.Acquires = append(w.sum.Acquires, AcquireSite{
			Lock: lock,
			Expr: expr,
			Pos:  call.Pos(),
			Read: sel.Sel.Name == "RLock",
			Held: w.heldVars(),
		})
		w.held[expr] = HeldLock{Expr: expr, Lock: lock, Pos: call.Pos()}
		return true
	case "Unlock", "RUnlock":
		delete(w.held, expr)
		return true
	}
	return false
}

// commOp records a select's comm clause (nil for default) and walks its
// operands, which run when the select is entered. An exit arm or a
// default guards the op out of ChanOps (it cannot park forever); only a
// default keeps it out of Blocking — without one, the select waits for
// some arm, exit arms included.
func (w *sumWalker) commOp(st ast.Stmt, guarded, blocks bool) {
	recv := func(e ast.Expr) {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.chanOp(u.Pos(), false, u.X, guarded, blocks)
			w.expr(u.X)
		}
	}
	switch st := st.(type) {
	case *ast.SendStmt:
		w.chanOp(st.Arrow, true, st.Chan, guarded, blocks)
		w.expr(st.Chan)
		w.expr(st.Value)
	case *ast.ExprStmt:
		recv(st.X)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			recv(e)
		}
		for _, e := range st.Lhs {
			w.expr(e)
		}
	}
}

// chanOp records one channel operation: in ChanOps unless guarded, in
// Blocking if it blocks.
func (w *sumWalker) chanOp(pos token.Pos, send bool, ch ast.Expr, guarded, blocks bool) {
	if !guarded {
		w.sum.ChanOps = append(w.sum.ChanOps, ChanOp{
			Pos: pos, Send: send, Name: lastName(ch), Chan: chanVar(w.f.Pkg.Info, ch),
			Waived: w.waived(pos, "goleak"),
		})
	}
	if blocks {
		what := "channel receive"
		if send {
			what = "channel send"
		}
		w.blocking(pos, what)
	}
}

// mergeArms walks each arm of a branching statement from a clone of the
// current state and replaces it with the union of the states of the arms
// that fall through (may-hold): an arm that diverges discards its
// releases, so an `unlock; return` guard cannot mask a blocking op under
// the lock on the main path. includePre adds the pre-state as a path of
// its own (if without else, switch without default, a loop body running
// zero times).
func (w *sumWalker) mergeArms(arms [][]ast.Stmt, includePre bool) {
	merged := map[string]HeldLock{}
	if includePre {
		merged = maps.Clone(w.held)
	}
	for _, arm := range arms {
		sub := &sumWalker{pr: w.pr, f: w.f, sum: w.sum, held: maps.Clone(w.held)}
		sub.stmts(arm)
		if Terminates(arm) {
			continue
		}
		for k, v := range sub.held {
			if _, ok := merged[k]; !ok {
				merged[k] = v
			}
		}
	}
	w.held = merged
}

// expr records calls, chan receives and blocking ops in an expression
// subtree.
func (w *sumWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.chanOp(n.Pos(), false, n.X, false, true)
				w.expr(n.X)
				return false
			}
		case *ast.CallExpr:
			w.recordCall(n, false)
			if verb := w.pr.BlockingCall(w.f.Pkg.Info, n); verb != "" {
				w.blocking(n.Pos(), verb)
			}
		}
		return true
	})
}

func (w *sumWalker) recordCall(call *ast.CallExpr, deferred bool) {
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
		Callees:  w.pr.Resolve(w.f, call),
		Expr:     ExprString(call.Fun),
		Pos:      call.Pos(),
		Held:     w.heldVars(),
		Locks:    w.locks(),
		Deferred: deferred,
	})
}

func (w *sumWalker) blocking(pos token.Pos, what string) {
	w.sum.Blocking = append(w.sum.Blocking, BlockOp{
		Pos: pos, What: what, Locks: w.locks(), Waived: w.waived(pos, "lockscope"),
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

// selectGuards reports whether a select statement has a default clause
// and whether it has an exit arm — one receiving from a context
// Done()/Err() channel, a stop-family channel, or a timer/ticker .C.
// Either way it cannot park forever on its data arms.
func selectGuards(st *ast.SelectStmt) (hasDefault, exitArm bool) {
	for _, c := range st.Body.List {
		cc := c.(*ast.CommClause)
		hasDefault = hasDefault || cc.Comm == nil
		exitArm = exitArm || recvIsExitArm(cc.Comm)
	}
	return hasDefault, exitArm
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
// last statement is a return, panic, or branch (break/continue/goto;
// a fallthrough runs on into the next case).
func Terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok != token.FALLTHROUGH
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

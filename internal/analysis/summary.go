// Function summaries: per-function facts computed once per Program and
// consumed by the interprocedural analyzers (lockorder, reslifecycle,
// goleak) and by the summary-sharpened per-function ones.
//
// Walk is the module's one branch-sensitive statement walk (each arm of
// an if, switch, select or loop starts from a clone of the state before
// it, an arm that ends in return, panic or a branch is dropped, the
// surviving arms' states are unioned); an analyzer rides it through the
// Flow hooks. The summary walker rides it to track which locks may be
// held (a deferred Unlock holds to function end), and reslifecycle to
// track release obligations. The summary walker records, for one body:
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
	Walk(&sumWalker{pr: pr, f: f, sum: s, held: map[string]HeldLock{}}, d.Body.List)
	return s
}

// SummarizeBlock runs the summary walker over one statement block (e.g.
// a goroutine literal's body) in f's resolution scope — only f.Pkg is
// read, so a literal outside any function passes a FuncInfo with only
// Pkg set. The result is not cached: literal bodies are not
// declarations.
func (pr *Program) SummarizeBlock(f *FuncInfo, body *ast.BlockStmt) *Summary {
	s := &Summary{Func: f}
	Walk(&sumWalker{pr: pr, f: f, sum: s, held: map[string]HeldLock{}}, body.List)
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

// Flow is one analyzer's side of Walk: the state it carries along a
// path, and what each statement does to it.
type Flow interface {
	// Leaf applies a statement that does not branch: an expression,
	// assignment, declaration, send, inc/dec, go, defer or return.
	Leaf(ast.Stmt)
	// Expr applies an expression a branching statement evaluates before
	// its arms: an if or for condition, a range target, a switch tag.
	Expr(ast.Expr)
	// Comm applies one of sel's communications, before any arm runs.
	Comm(sel *ast.SelectStmt, comm ast.Stmt)
	// Clone copies the state for one arm. An if's arms get its condition,
	// with taken true for the then arm, so an analyzer can drop what the
	// guard rules out; every other arm gets a nil cond.
	Clone(cond ast.Expr, taken bool) Flow
	// Union replaces the state with the union of the arms' states (no
	// arms: every one diverged).
	Union(arms []Flow)
}

// Walk is the one branch-sensitive statement walk: each arm of an if,
// switch, select or loop runs on a clone of the state before it, an arm
// that ends in return, panic or a branch is dropped, and the surviving
// arms' states are unioned. Skipping every arm (an if without else, a
// switch without default, a loop running zero times) is an arm of its
// own. Function literals are left to the Flow.
func Walk(f Flow, list []ast.Stmt) {
	for _, st := range list {
		walkStmt(f, st)
	}
}

func walkStmt(f Flow, st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		Walk(f, st.List)
	case *ast.LabeledStmt:
		walkStmt(f, st.Stmt)
	case *ast.IfStmt:
		walkStmt(f, st.Init)
		f.Expr(st.Cond)
		var els []ast.Stmt
		if st.Else != nil {
			els = []ast.Stmt{st.Else}
		}
		branch(f, st.Cond, st.Body.List, els)
	case *ast.ForStmt:
		walkStmt(f, st.Init)
		f.Expr(st.Cond)
		walkStmt(f, st.Post)
		branch(f, nil, nil, st.Body.List)
	case *ast.RangeStmt:
		f.Expr(st.X)
		branch(f, nil, nil, st.Body.List)
	case *ast.SwitchStmt:
		walkStmt(f, st.Init)
		f.Expr(st.Tag)
		branch(f, nil, caseArms(st.Body)...)
	case *ast.TypeSwitchStmt:
		walkStmt(f, st.Init)
		walkStmt(f, st.Assign)
		branch(f, nil, caseArms(st.Body)...)
	case *ast.SelectStmt:
		// Exactly one arm runs; there is no path around them.
		var arms [][]ast.Stmt
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				f.Comm(st, cc.Comm)
			}
			arms = append(arms, cc.Body)
		}
		branch(f, nil, arms...)
	default:
		f.Leaf(st)
	}
}

// branch walks each arm on a clone of f and unions the arms that fall
// through into f. An arm that diverges takes its effects with it, so an
// `unlock; return` guard cannot mask a blocking op under the lock on the
// main path.
func branch(f Flow, cond ast.Expr, arms ...[]ast.Stmt) {
	var survivors []Flow
	for i, arm := range arms {
		sub := f.Clone(cond, i == 0)
		Walk(sub, arm)
		if !terminates(arm) {
			survivors = append(survivors, sub)
		}
	}
	f.Union(survivors)
}

// caseArms lists a switch or type-switch body's clause bodies, led by
// an empty arm when no default clause catches the rest.
func caseArms(body *ast.BlockStmt) [][]ast.Stmt {
	var arms [][]ast.Stmt
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		hasDefault = hasDefault || cc.List == nil
		arms = append(arms, cc.Body)
	}
	if !hasDefault {
		arms = append([][]ast.Stmt{nil}, arms...)
	}
	return arms
}

// Leaf records what a non-branching statement does: calls, chan ops,
// blocking ops, and the acquires and releases of a Lock/Unlock
// statement. A go statement records nothing: the spawn doesn't block,
// and its body is a separate unit.
func (w *sumWalker) Leaf(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if !w.lockStmt(st.X) {
			w.expr(st.X)
		}
	case *ast.DeferStmt:
		// A deferred Unlock pins the critical section to function end —
		// leave held untouched. A deferred release/Close is recorded as a
		// call site (reslifecycle wants it); other deferred work runs
		// after the body.
		w.recordCall(st.Call, true)
	case *ast.SendStmt:
		w.chanOp(st.Arrow, true, st.Chan, false, true)
		w.expr(st.Chan)
		w.expr(st.Value)
	case *ast.AssignStmt:
		w.exprs(st.Rhs)
		w.exprs(st.Lhs)
	case *ast.ReturnStmt:
		w.exprs(st.Results)
	case *ast.IncDecStmt:
		w.expr(st.X)
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e)
				return false
			}
			return true
		})
	}
}

// Expr records a branch header's calls and receives.
func (w *sumWalker) Expr(e ast.Expr) { w.expr(e) }

// Comm records a select clause's operation (see commOp). An exit arm
// or a default guards it out of ChanOps; only a default keeps it out of
// Blocking.
func (w *sumWalker) Comm(sel *ast.SelectStmt, comm ast.Stmt) {
	hasDefault, exitArm := selectGuards(sel)
	w.commOp(comm, hasDefault || exitArm, !hasDefault)
}

// Clone copies the may-held set for one arm.
func (w *sumWalker) Clone(ast.Expr, bool) Flow {
	return &sumWalker{pr: w.pr, f: w.f, sum: w.sum, held: maps.Clone(w.held)}
}

// Union makes held the union of the arms' may-held sets.
func (w *sumWalker) Union(arms []Flow) {
	w.held = map[string]HeldLock{}
	for _, arm := range arms {
		for k, v := range arm.(*sumWalker).held {
			if _, ok := w.held[k]; !ok {
				w.held[k] = v
			}
		}
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

func (w *sumWalker) exprs(list []ast.Expr) {
	for _, e := range list {
		w.expr(e)
	}
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

// terminates reports whether a statement list visibly diverges: its
// last statement is a return, panic, or branch (break/continue/goto;
// a fallthrough runs on into the next case).
func terminates(list []ast.Stmt) bool {
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
		return terminates([]ast.Stmt{last.Stmt})
	case *ast.BlockStmt:
		return terminates(last.List)
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

// Package reslifecycle enforces release obligations on every path.
//
// The serving path hands out values that MUST be given back: open
// streams (llm.Stream, cascade.RunStream, proxy.Stream — abandoning one
// mid-error leaks the upstream connection and, for the cascade, the
// billing settlement), pooled scratch vectors (embed TextScratch /
// ReleaseScratch — a dropped scratch silently shrinks the pool), a
// scheduler (Close joins its flush goroutines), and net/http response
// bodies. PR 5's analyzers cannot see a leak that only happens on the
// early-return error path three branches in; this analyzer can, because
// it tracks obligations branch-sensitively the same way the summary
// walker tracks held locks.
//
// An obligation is born when a call's first result has a tracked type
// (the type seeds below, so a wrapper, an interface method or a creator
// in another package whose result is llm.Stream all count) or the call
// is of a tracked creator function (the pooled-scratch accessor, whose
// result type says nothing). It is bound to the variable that receives
// it — the *types.Var, so an alias `r2 := resp` is a second binding of
// the same obligation and shadowing cannot confuse two values. It dies
// when the value is:
//
//   - released: x.Close() / x.Stop() (directly, deferred, or via a
//     bound method value f := x.Close; defer f()); scratch vectors via
//     ReleaseScratch(x) or any Release*-named call taking x; response
//     bodies via x.Body.Close() or x.Close();
//   - transferred: returned to the caller, stored into a struct field,
//     map, slice or global, sent on a channel, captured by a function
//     literal, or (for streams/closers/bodies, NOT scratch vectors —
//     passing a scratch to a consumer is use, not release) passed as a
//     call argument;
//   - invalidated: the error-path guard of its own creation
//     (`x, err := open(); if err != nil { ... }` — x is dead in the
//     error arm), or an explicit `x == nil` / `x != nil` test.
//
// Any path reaching a return or the end of the function with a live
// obligation is a leak, reported at the creation site.
//
// Escape hatch: //llmdm:allow reslifecycle <reason> at the creation.
package reslifecycle

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the reslifecycle rule.
var Analyzer = &analysis.Analyzer{
	Name: "reslifecycle",
	Doc: "obligation-carrying values (open streams, pooled scratch vectors, schedulers, response " +
		"bodies) must be released, returned, stored or handed off on every path, including early " +
		"returns and error paths",
	Run: run,
}

// Obligation kinds.
const (
	kindStream  = "stream"  // released by Close/Stop, transferable by arg-pass
	kindCloser  = "closer"  // same, for Close()-bearing subsystems
	kindScratch = "scratch" // released ONLY via Release*-named calls
	kindBody    = "body"    // http response: x.Body.Close()
)

// seed is what a tracked type or creator puts on the value: the kind
// and the release the diagnostic names.
type seed struct{ kind, release string }

// seedNames name the tracked objects: a result type (two names) or a
// creator method (three). Resolved to types.Objects once per Program.
var seedNames = []struct {
	path []string
	seed
}{
	{[]string{"repro/internal/llm", "Stream"}, seed{kindStream, "Close"}},
	{[]string{"repro/internal/core/cascade", "RunStream"}, seed{kindStream, "Close"}},
	{[]string{"repro/internal/proxy", "Stream"}, seed{kindStream, "Close"}},
	{[]string{"repro/internal/sched", "Scheduler"}, seed{kindCloser, "Close"}},
	{[]string{"net/http", "Response"}, seed{kindBody, "Body.Close"}},
	{[]string{"repro/internal/embed", "Embedder", "TextScratch"}, seed{kindScratch, "ReleaseScratch"}},
}

const stashKey = "reslifecycle.seeds"

func seedsOf(prog *analysis.Program) map[types.Object]seed {
	if m, ok := prog.Stash[stashKey].(map[types.Object]seed); ok {
		return m
	}
	m := map[types.Object]seed{}
	for _, sn := range seedNames {
		if obj := prog.Object(sn.path[0], sn.path[1], sn.path[2:]...); obj != nil {
			m[obj] = sn.seed
		}
	}
	prog.Stash[stashKey] = m
	return m
}

// releaseNames: method names that satisfy a Close-style obligation.
var releaseNames = map[string]bool{"Close": true, "Stop": true}

func run(pass *analysis.Pass) error {
	seeds := seedsOf(pass.Prog)
	if len(seeds) == 0 {
		return nil
	}
	pass.EachFile(func(name string, f *ast.File) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				t := &tracker{
					info: pass.Pkg.Info, seeds: seeds,
					sink: &sink{pass: pass, reported: map[*obligation]bool{}},
				}
				t.scope(fd.Body)
			}
		}
	})
	return nil
}

// obligation is one live release duty.
type obligation struct {
	seed
	holder *types.Var // the variable the creation assigned it to
	errVar *types.Var // paired error result (nil when none)
	pos    token.Pos  // creation site (diagnostic anchor)
	what   string     // creator description for the message
}

// sink collects leaks across forked branch trackers, deduped per
// obligation (one creation site reports once however many exits leak).
type sink struct {
	pass     *analysis.Pass
	reported map[*obligation]bool
}

func (s *sink) leak(o *obligation, at token.Pos) {
	if s.reported[o] {
		return
	}
	s.reported[o] = true
	p := s.pass.Pkg.Fset.Position(at)
	s.pass.Reportf(o.pos,
		"%s carries a %s obligation that is not released on every path "+
			"(leaks at %s:%s) — release it, hand it off, or annotate //llmdm:allow reslifecycle",
		o.what, o.release, filepath.Base(p.Filename), strconv.Itoa(p.Line))
}

// tracker is the branch-sensitive obligation scanner. It mirrors the
// summary walker's may-hold discipline: clone per arm, drop diverging arms,
// union survivors — so "live" means live on SOME path, which is exactly
// leak semantics. bound says which obligation each variable holds;
// settling an obligation through any of its variables settles it.
type tracker struct {
	info  *types.Info
	seeds map[types.Object]seed
	bound map[*types.Var]*obligation
	live  map[*obligation]bool
	sink  *sink
}

// scope analyzes one function or literal body as its own obligation
// scope: fresh state, shared sink.
func (t *tracker) scope(body *ast.BlockStmt) {
	sub := &tracker{
		info: t.info, seeds: t.seeds, sink: t.sink,
		bound: map[*types.Var]*obligation{}, live: map[*obligation]bool{},
	}
	sub.stmts(body.List)
	sub.exit(body.End(), nil)
}

func (t *tracker) fork(drop map[*obligation]bool) *tracker {
	sub := *t
	sub.bound, sub.live = maps.Clone(t.bound), maps.Clone(t.live)
	for o := range drop {
		delete(sub.live, o)
	}
	return &sub
}

// join replaces the state with the union of the surviving arms'.
func (t *tracker) join(arms []*tracker) {
	t.bound, t.live = map[*types.Var]*obligation{}, map[*obligation]bool{}
	for _, arm := range arms {
		for v, o := range arm.bound {
			if _, ok := t.bound[v]; !ok {
				t.bound[v] = o
			}
		}
		for o := range arm.live {
			t.live[o] = true
		}
	}
}

// varOf is the variable an identifier expression names, else nil.
func (t *tracker) varOf(e ast.Expr) *types.Var {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		v, _ := t.info.ObjectOf(id).(*types.Var)
		return v
	}
	return nil
}

// holds is the live obligation held by the variable e names, else nil.
func (t *tracker) holds(e ast.Expr) *obligation {
	if o := t.bound[t.varOf(e)]; o != nil && t.live[o] {
		return o
	}
	return nil
}

// settleIdents settles every live obligation a variable mentioned in n
// holds, scratch vectors included only when scratch is set.
func (t *tracker) settleIdents(n ast.Node, scratch bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := t.holds(id); o != nil && (scratch || o.kind != kindScratch) {
				delete(t.live, o)
			}
		}
		return true
	})
}

// exit flags every live obligation not escaping via ret (a return
// statement's results, or nil for fall-off-the-end).
func (t *tracker) exit(at token.Pos, ret *ast.ReturnStmt) {
	escaped := map[*obligation]bool{}
	if ret != nil {
		for _, res := range ret.Results {
			ast.Inspect(res, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					escaped[t.holds(id)] = true
				}
				return true
			})
		}
	}
	for o := range t.live {
		if !escaped[o] {
			t.sink.leak(o, at)
		}
	}
}

func (t *tracker) stmts(list []ast.Stmt) {
	for _, st := range list {
		t.stmt(st)
	}
}

func (t *tracker) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.AssignStmt:
		t.assign(st)
	case *ast.ExprStmt:
		t.expr(st.X)
	case *ast.DeferStmt:
		t.deferred(st.Call)
	case *ast.GoStmt:
		// The goroutine captures what it references: hand-off. A literal
		// body is additionally its own obligation scope.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			t.scanExpr(lit, false)
			for _, arg := range st.Call.Args {
				t.settleIdents(arg, true)
			}
		} else {
			t.settleIdents(st.Call, true)
		}
	case *ast.SendStmt:
		t.settleIdents(st.Value, true)
	case *ast.ReturnStmt:
		for _, res := range st.Results {
			t.returnExpr(res)
		}
		t.exit(st.Pos(), st)
		t.live = map[*obligation]bool{} // path ends here
	case *ast.IfStmt:
		t.stmt(st.Init)
		t.exprNoEscape(st.Cond)
		t.branchIf(st)
	case *ast.ForStmt:
		t.stmt(st.Init)
		if st.Cond != nil {
			t.exprNoEscape(st.Cond)
		}
		t.stmt(st.Post)
		t.arms([][]ast.Stmt{st.Body.List}, true)
	case *ast.RangeStmt:
		t.exprNoEscape(st.X)
		t.arms([][]ast.Stmt{st.Body.List}, true)
	case *ast.BlockStmt:
		t.stmts(st.List)
	case *ast.SwitchStmt:
		t.stmt(st.Init)
		t.arms(analysis.CaseArms(st.Body), !analysis.HasDefault(st.Body))
	case *ast.TypeSwitchStmt:
		t.stmt(st.Init)
		t.arms(analysis.CaseArms(st.Body), !analysis.HasDefault(st.Body))
	case *ast.SelectStmt:
		var arms [][]ast.Stmt
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				t.commStmt(cc.Comm)
			}
			arms = append(arms, cc.Body)
		}
		t.arms(arms, false)
	case *ast.LabeledStmt:
		t.stmt(st.Stmt)
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if vs, ok := n.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					t.expr(v)
				}
			}
			return true
		})
	}
}

// returnExpr scans one return result: a creator call returned directly
// is propagation to the caller, not a leak.
func (t *tracker) returnExpr(e ast.Expr) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if _, _, created := t.creates(call); created {
			for _, arg := range call.Args {
				t.exprNoEscape(arg)
			}
			return
		}
	}
	t.exprNoEscape(e)
}

// commStmt handles a select comm clause without the branch machinery.
func (t *tracker) commStmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.SendStmt:
		t.settleIdents(st.Value, true)
	case *ast.AssignStmt:
		t.assign(st)
	case *ast.ExprStmt:
		t.expr(st.X)
	}
}

// branchIf runs the two arms with error-guard awareness.
func (t *tracker) branchIf(st *ast.IfStmt) {
	thenDrop, elseDrop := t.guardDrops(st.Cond)
	var survivors []*tracker
	thenT := t.fork(thenDrop)
	thenT.stmts(st.Body.List)
	if !analysis.Terminates(st.Body.List) {
		survivors = append(survivors, thenT)
	}
	elseT := t.fork(elseDrop)
	if st.Else != nil {
		elseT.stmt(st.Else)
	}
	if st.Else == nil || !analysis.Terminates([]ast.Stmt{st.Else}) {
		survivors = append(survivors, elseT)
	}
	t.join(survivors)
}

// guardDrops classifies an if condition: `err != nil` invalidates
// err-paired obligations in the then arm (that IS the error path, the
// value is nil there), `err == nil` in the fall-through/else, and
// likewise nil tests on the obligation variable itself.
func (t *tracker) guardDrops(cond ast.Expr) (thenDrop, elseDrop map[*obligation]bool) {
	thenDrop, elseDrop = map[*obligation]bool{}, map[*obligation]bool{}
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return
	}
	var v *types.Var
	switch {
	case t.info.Types[bin.Y].IsNil():
		v = t.varOf(bin.X)
	case t.info.Types[bin.X].IsNil():
		v = t.varOf(bin.Y)
	}
	if v == nil {
		return
	}
	for o := range t.live {
		paired, self := o.errVar == v, t.bound[v] == o
		switch {
		case paired && bin.Op == token.NEQ, self && bin.Op == token.EQL:
			thenDrop[o] = true // if err != nil / if x == nil: no value in then
		case paired || self:
			elseDrop[o] = true // if err == nil / if x != nil: no value in else
		}
	}
	return
}

// arms runs generic branch arms (for/switch/select) and unions
// surviving states; includePre keeps the not-taken path live.
func (t *tracker) arms(arms [][]ast.Stmt, includePre bool) {
	var survivors []*tracker
	if includePre {
		survivors = append(survivors, t.fork(nil))
	}
	for _, arm := range arms {
		sub := t.fork(nil)
		sub.stmts(arm)
		if !analysis.Terminates(arm) {
			survivors = append(survivors, sub)
		}
	}
	t.join(survivors)
}

// assign handles creations, releases via bound methods, aliases and
// stores.
func (t *tracker) assign(a *ast.AssignStmt) {
	// Creation: one call RHS whose result carries an obligation.
	if len(a.Rhs) == 1 {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			if sd, what, ok := t.creates(call); ok {
				for _, arg := range call.Args {
					t.exprNoEscape(arg)
				}
				t.bind(a, call, sd, what)
				return
			}
		}
	}
	for _, rhs := range a.Rhs {
		// f := x.Close — binding a release method discharges x (the
		// binding exists to be called; analysistest keeps this honest).
		if sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr); ok && releaseNames[sel.Sel.Name] {
			if o := t.holds(sel.X); o != nil {
				delete(t.live, o)
				continue
			}
		}
		t.expr(rhs)
	}
	for i, lhs := range a.Lhs {
		v := t.varOf(lhs)
		if _, ok := lhs.(*ast.Ident); !ok || (v != nil && v.Parent() == v.Pkg().Scope()) {
			// Store into a field/map/slice/pointer/global: ownership escapes.
			if i < len(a.Rhs) {
				t.settleIdents(a.Rhs[i], true)
			}
			continue
		}
		if v == nil {
			continue // the blank identifier
		}
		if i < len(a.Rhs) {
			if o := t.holds(a.Rhs[i]); o != nil {
				t.bound[v] = o // alias: a second variable holding the value
				continue
			}
		}
		// Overwriting the variable an obligation was created into while
		// it is live makes the old value unreachable.
		if o := t.holds(lhs); o != nil && o.holder == v {
			t.sink.leak(o, a.Pos())
			delete(t.live, o)
		}
		delete(t.bound, v)
	}
}

// bind attaches the new obligation to what receives the call's first
// result — the tracked one; an error-typed variable among the rest is
// its paired error.
func (t *tracker) bind(a *ast.AssignStmt, call *ast.CallExpr, sd seed, what string) {
	o := &obligation{seed: sd, pos: call.Pos(), what: what}
	for _, lhs := range a.Lhs[1:] {
		if v := t.varOf(lhs); v != nil && types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
			o.errVar = v
		}
	}
	if _, ok := a.Lhs[0].(*ast.Ident); !ok {
		return // s.stream, err = open(): stored at birth, not ours to track
	}
	if o.holder = t.varOf(a.Lhs[0]); o.holder == nil {
		// `_, err := open()` — deliberate discard still leaks the value
		// for kinds with no finalizer to save them.
		if sd.kind == kindStream || sd.kind == kindScratch {
			t.sink.leak(o, call.Pos())
		}
		return
	}
	// Re-creating into the same variable (`s, err = open()` in a retry)
	// takes the variable over from the value it held.
	if old := t.bound[o.holder]; old != nil && old.holder == o.holder {
		delete(t.live, old)
	}
	t.bound[o.holder], t.live[o] = o, true
}

// creates classifies a call as an obligation creator: a seeded creator
// function, or any function or method whose first result has a seeded
// type.
func (t *tracker) creates(call *ast.CallExpr) (sd seed, what string, ok bool) {
	if tv := t.info.Types[call.Fun]; tv.IsType() || tv.IsBuiltin() {
		return sd, "", false
	}
	from := " from " + analysis.ExprString(call.Fun) + "()"
	if fn := analysis.Callee(t.info, call); fn != nil {
		if sd, ok = t.seeds[fn.Origin()]; ok {
			return sd, "scratch vector" + from, true
		}
	}
	typ := t.info.TypeOf(call)
	if tuple, isTuple := typ.(*types.Tuple); isTuple {
		if tuple.Len() == 0 {
			return sd, "", false
		}
		typ = tuple.At(0).Type()
	}
	if tn := analysis.NamedObj(typ); tn != nil {
		if sd, ok = t.seeds[tn]; ok {
			return sd, tn.Pkg().Name() + "." + tn.Name() + from, true
		}
	}
	return sd, "", false
}

// deferred applies a deferred call: releases discharge for the whole
// function (defers run at every exit).
func (t *tracker) deferred(call *ast.CallExpr) {
	if t.releaseIn(call) {
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				t.releaseIn(c)
			}
			return true
		})
		t.scope(lit.Body)
		return
	}
	if _, ok := call.Fun.(*ast.Ident); ok && len(call.Args) == 0 {
		return // defer f() where f was a bound release: discharged at binding
	}
	t.expr(call)
}

// expr scans an expression for releases, hand-offs and creators whose
// results are dropped on the floor.
func (t *tracker) expr(e ast.Expr) {
	t.scanExpr(e, true)
}

// exprNoEscape scans without treating ident references as hand-offs —
// conditions, range targets and return results read values, they don't
// take custody (returns are handled by exit()).
func (t *tracker) exprNoEscape(e ast.Expr) {
	t.scanExpr(e, false)
}

func (t *tracker) scanExpr(e ast.Expr, escapes bool) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if t.releaseIn(e) {
			return
		}
		if sd, what, ok := t.creates(e); ok {
			if sd.kind == kindStream || sd.kind == kindScratch {
				t.sink.leak(&obligation{seed: sd, pos: e.Pos(), what: what}, e.Pos())
			}
			return
		}
		for _, arg := range e.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				t.scanExpr(lit, false) // captures escape + own scope
				continue
			}
			if escapes {
				// The callee took custody (a scratch passed down is use,
				// not release).
				t.settleIdents(arg, false)
			} else {
				t.scanExpr(arg, false)
			}
		}
		t.scanExpr(e.Fun, false)
	case *ast.FuncLit:
		// Captured obligations escape into the literal, and the literal
		// body is its own obligation scope: a stream opened inside a
		// goroutine must be closed inside it (or escape).
		t.settleIdents(e.Body, false)
		t.scope(e.Body)
	case *ast.UnaryExpr:
		t.scanExpr(e.X, escapes)
	case *ast.BinaryExpr:
		t.scanExpr(e.X, false)
		t.scanExpr(e.Y, false)
	case *ast.ParenExpr:
		t.scanExpr(e.X, escapes)
	case *ast.SelectorExpr:
		t.scanExpr(e.X, false)
	case *ast.IndexExpr:
		t.scanExpr(e.X, false)
		t.scanExpr(e.Index, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			t.settleIdents(el, true)
		}
	case *ast.TypeAssertExpr:
		t.scanExpr(e.X, false)
	case *ast.StarExpr:
		t.scanExpr(e.X, escapes)
	case *ast.KeyValueExpr:
		t.settleIdents(e.Value, true)
	}
}

// releaseIn discharges obligations satisfied by this call; reports
// whether the call was a release.
func (t *tracker) releaseIn(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	var o *obligation
	switch {
	case releaseNames[sel.Sel.Name]:
		o = t.holds(sel.X)
		if body, ok := sel.X.(*ast.SelectorExpr); ok && body.Sel.Name == "Body" { // resp.Body.Close()
			if o = t.holds(body.X); o != nil && o.kind != kindBody {
				o = nil
			}
		}
	case strings.HasPrefix(sel.Sel.Name, "Release"):
		for _, arg := range call.Args {
			if h := t.holds(arg); h != nil && h.kind == kindScratch {
				o = h
				break
			}
		}
	}
	if o == nil {
		return false
	}
	delete(t.live, o)
	return true
}

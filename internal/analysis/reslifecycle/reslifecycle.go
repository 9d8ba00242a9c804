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
// it tracks obligations branch-sensitively the same way lockscope
// tracks held locks.
//
// An obligation is born when a call's result carries a tracked type or
// name (the seed tables below — resolution through the Program layer's
// call graph, so a wrapper whose declared result is llm.Stream is a
// creator too). It dies when the value is:
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

// typeSeeds: canonical result type → obligation kind + the release the
// diagnostic names.
var typeSeeds = map[string]struct{ kind, release string }{
	"repro/internal/llm.Stream":             {kindStream, "Close"},
	"repro/internal/core/cascade.RunStream": {kindStream, "Close"},
	"repro/internal/proxy.Stream":           {kindStream, "Close"},
	"repro/internal/sched.Scheduler":        {kindCloser, "Close"},
	"net/http.Response":                     {kindBody, "Body.Close"},
}

// nameSeeds: callee method/function name → obligation, for creators
// whose result types the syntactic layer cannot see (interface-typed
// locals, pooled buffers).
var nameSeeds = map[string]struct{ kind, release string }{
	"TextScratch": {kindScratch, "ReleaseScratch"},
}

// httpOpenNames: net/http functions returning *http.Response.
var httpOpenNames = map[string]bool{
	"Get": true, "Post": true, "Head": true, "PostForm": true, "Do": true,
}

// releaseNames: method names that satisfy a Close-style obligation.
var releaseNames = map[string]bool{"Close": true, "Stop": true}

func run(pass *analysis.Pass) error {
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
			checkFunc(pass, fi)
		}
	})
	return nil
}

// obligation is one live release duty bound to a local variable.
type obligation struct {
	name    string // variable holding the value
	kind    string
	release string
	pos     token.Pos // creation site (diagnostic anchor)
	errVar  string    // paired error result name ("" when none)
	what    string    // creator description for the message
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
	site := positionString(s.pass.Pkg.Fset.Position(at))
	s.pass.Reportf(o.pos,
		"%s carries a %s obligation that is not released on every path "+
			"(leaks at %s) — release it, hand it off, or annotate //llmdm:allow reslifecycle",
		o.what, o.release, site)
}

func positionString(p token.Position) string {
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func checkFunc(pass *analysis.Pass, fi *analysis.FuncInfo) {
	t := &tracker{
		pass: pass, fi: fi,
		live: map[string]*obligation{},
		sink: &sink{pass: pass, reported: map[*obligation]bool{}},
	}
	t.stmts(fi.Decl.Body.List)
	t.exit(fi.Decl.Body.End(), nil)
}

// tracker is the branch-sensitive obligation scanner. It mirrors
// lockscope's may-hold discipline: clone per arm, drop diverging arms,
// union survivors — so "live" means live on SOME path, which is exactly
// leak semantics.
type tracker struct {
	pass *analysis.Pass
	fi   *analysis.FuncInfo
	live map[string]*obligation
	sink *sink
}

func (t *tracker) fork(pre map[string]*obligation, drop map[string]bool) *tracker {
	sub := &tracker{pass: t.pass, fi: t.fi, live: cloneLive(pre), sink: t.sink}
	for name := range drop {
		sub.discharge(name)
	}
	return sub
}

// exit flags every live obligation not escaping via ret (a return
// statement's results, or nil for fall-off-the-end).
func (t *tracker) exit(at token.Pos, ret *ast.ReturnStmt) {
	escaping := map[string]bool{}
	if ret != nil {
		for _, res := range ret.Results {
			ast.Inspect(res, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					escaping[id.Name] = true
				}
				return true
			})
		}
	}
	// An obligation escapes when any name bound to it does.
	escaped := map[*obligation]bool{}
	for name, o := range t.live {
		if escaping[name] {
			escaped[o] = true
		}
	}
	for _, o := range t.live {
		if !escaped[o] {
			t.sink.leak(o, at)
		}
	}
}

// discharge settles the obligation held under name: a release or a
// hand-off through one name settles every alias of the same value.
func (t *tracker) discharge(name string) {
	o, ok := t.live[name]
	if !ok {
		return
	}
	for alias, other := range t.live {
		if other == o {
			delete(t.live, alias)
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
				t.escapeIdents(arg)
			}
		} else {
			t.escapeIdents(st.Call)
		}
	case *ast.SendStmt:
		t.escapeIdents(st.Value)
	case *ast.ReturnStmt:
		for _, res := range st.Results {
			t.returnExpr(res)
		}
		t.exit(st.Pos(), st)
		t.live = map[string]*obligation{} // path ends here
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
		t.arms(caseArms(st.Body), !hasDefault(st.Body))
	case *ast.TypeSwitchStmt:
		t.stmt(st.Init)
		t.arms(caseArms(st.Body), !hasDefault(st.Body))
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
	if call, ok := stripParens(e).(*ast.CallExpr); ok {
		if _, _, _, created := t.creates(call); created {
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
		t.escapeIdents(st.Value)
	case *ast.AssignStmt:
		t.assign(st)
	case *ast.ExprStmt:
		t.expr(st.X)
	}
}

// branchIf runs the two arms with error-guard awareness.
func (t *tracker) branchIf(st *ast.IfStmt) {
	thenDrop, elseDrop := t.guardDrops(st.Cond)
	pre := cloneLive(t.live)

	thenT := t.fork(pre, thenDrop)
	thenT.stmts(st.Body.List)
	thenTerm := terminates(st.Body.List)

	merged := map[string]*obligation{}
	if !thenTerm {
		for k, v := range thenT.live {
			merged[k] = v
		}
	}
	if st.Else == nil {
		for k, v := range pre {
			if !elseDrop[k] {
				if _, ok := merged[k]; !ok {
					merged[k] = v
				}
			}
		}
	} else {
		elseT := t.fork(pre, elseDrop)
		elseT.stmts([]ast.Stmt{st.Else})
		if !terminatesStmt(st.Else) {
			for k, v := range elseT.live {
				if _, ok := merged[k]; !ok {
					merged[k] = v
				}
			}
		}
	}
	t.live = merged
}

// guardDrops classifies an if condition: `err != nil` invalidates
// err-paired obligations in the then arm (that IS the error path, the
// value is nil there), `err == nil` in the fall-through/else, and
// likewise nil tests on the obligation variable itself.
func (t *tracker) guardDrops(cond ast.Expr) (thenDrop, elseDrop map[string]bool) {
	thenDrop, elseDrop = map[string]bool{}, map[string]bool{}
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	id, ok := nilComparand(bin)
	if !ok {
		return
	}
	for name, o := range t.live {
		pairedErr := o.errVar != "" && o.errVar == id
		self := name == id
		if !pairedErr && !self {
			continue
		}
		switch {
		case bin.Op == token.NEQ && pairedErr: // if err != nil: value dead in then
			thenDrop[name] = true
		case bin.Op == token.EQL && pairedErr: // if err == nil: value dead in else
			elseDrop[name] = true
		case bin.Op == token.NEQ && self: // if x != nil: nothing to release in else
			elseDrop[name] = true
		case bin.Op == token.EQL && self: // if x == nil: nothing to release in then
			thenDrop[name] = true
		}
	}
	return
}

// nilComparand extracts the ident name from `id OP nil` / `nil OP id`.
func nilComparand(bin *ast.BinaryExpr) (string, bool) {
	if isNil(bin.Y) {
		if id, ok := bin.X.(*ast.Ident); ok {
			return id.Name, true
		}
	}
	if isNil(bin.X) {
		if id, ok := bin.Y.(*ast.Ident); ok {
			return id.Name, true
		}
	}
	return "", false
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// arms runs generic branch arms (for/switch/select) and unions
// surviving states; includePre keeps the not-taken path live.
func (t *tracker) arms(arms [][]ast.Stmt, includePre bool) {
	pre := cloneLive(t.live)
	merged := map[string]*obligation{}
	if includePre {
		for k, v := range pre {
			merged[k] = v
		}
	}
	for _, arm := range arms {
		sub := t.fork(pre, nil)
		sub.stmts(arm)
		if !terminates(arm) {
			for k, v := range sub.live {
				if _, ok := merged[k]; !ok {
					merged[k] = v
				}
			}
		}
	}
	t.live = merged
}

// assign handles creations, releases via bound methods, aliases and
// stores.
func (t *tracker) assign(a *ast.AssignStmt) {
	// Creation: one call RHS whose result carries an obligation.
	if len(a.Rhs) == 1 {
		if call, ok := stripParens(a.Rhs[0]).(*ast.CallExpr); ok {
			if kind, release, what, ok := t.creates(call); ok {
				for _, arg := range call.Args {
					t.exprNoEscape(arg)
				}
				t.bind(a, call, kind, release, what)
				return
			}
		}
	}
	for _, rhs := range a.Rhs {
		// f := x.Close — binding a release method discharges x (the
		// binding exists to be called; analysistest keeps this honest).
		if sel, ok := stripParens(rhs).(*ast.SelectorExpr); ok && releaseNames[sel.Sel.Name] {
			if id, ok := sel.X.(*ast.Ident); ok {
				if _, live := t.live[id.Name]; live {
					t.discharge(id.Name)
					continue
				}
			}
		}
		t.expr(rhs)
	}
	for i, lhs := range a.Lhs {
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			if i < len(a.Rhs) {
				if id, ok := stripParens(a.Rhs[i]).(*ast.Ident); ok {
					if o, live := t.live[id.Name]; live {
						// Alias: both names reach the value; track it under the
						// new name too (discharge settles them together).
						t.live[l.Name] = o
						continue
					}
				}
			}
			// Rebinding a name forgets its old obligation only when it was
			// the same value being nil-ed out after an explicit release —
			// otherwise keep the duty alive under its obligation identity.
			if o, live := t.live[l.Name]; live && o.name == l.Name {
				// Overwritten while live: the old value is unreachable now.
				t.sink.leak(o, a.Pos())
			}
			delete(t.live, l.Name)
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			// Store into a field/map/slice/pointer: ownership escapes.
			if i < len(a.Rhs) {
				t.escapeIdents(a.Rhs[i])
			}
			_ = l
		}
	}
}

// bind attaches a new obligation to the assignment's value LHS.
func (t *tracker) bind(a *ast.AssignStmt, call *ast.CallExpr, kind, release, what string) {
	errVar := ""
	var valueIdent *ast.Ident
	allFields := true
	for _, lhs := range a.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue // field/index target: escaped at birth
		}
		allFields = false
		if strings.HasPrefix(id.Name, "err") {
			errVar = id.Name
			continue
		}
		if id.Name != "_" && valueIdent == nil {
			valueIdent = id
		}
	}
	if allFields {
		return // s.stream, s.err = open(): stored, not ours to track
	}
	if valueIdent == nil {
		// `_, err := open()` — deliberate discard still leaks the value
		// for kinds with no finalizer to save them.
		if kind == kindStream || kind == kindScratch {
			o := &obligation{kind: kind, release: release, pos: call.Pos(), what: what}
			t.sink.leak(o, call.Pos())
		}
		return
	}
	t.live[valueIdent.Name] = &obligation{
		name: valueIdent.Name, kind: kind, release: release,
		pos: call.Pos(), errVar: errVar, what: what,
	}
}

// creates classifies a call as an obligation creator.
func (t *tracker) creates(call *ast.CallExpr) (kind, release, what string, ok bool) {
	if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
		if s, hit := nameSeeds[sel.Sel.Name]; hit {
			return s.kind, s.release, "scratch vector from ." + sel.Sel.Name, true
		}
		if id, isID := sel.X.(*ast.Ident); isID && id.Name == "http" && httpOpenNames[sel.Sel.Name] {
			return kindBody, "Body.Close", "http response from http." + sel.Sel.Name, true
		}
	}
	callee := t.pass.Prog.Resolve(t.fi, call)
	if callee == nil || len(callee.Results) == 0 {
		return "", "", "", false
	}
	if s, hit := typeSeeds[callee.Results[0]]; hit {
		return s.kind, s.release, shortType(callee.Results[0]) + " from " + callee.String(), true
	}
	return "", "", "", false
}

func shortType(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		key = key[i+1:]
	}
	return key
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
		t.litScope(lit)
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) == 0 {
		// defer f() where f was a bound release: discharged at binding.
		_ = id
		return
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
		if kind, release, what, ok := t.creates(e); ok {
			if kind == kindStream || kind == kindScratch {
				o := &obligation{kind: kind, release: release, pos: e.Pos(), what: what}
				t.sink.leak(o, e.Pos())
			}
			return
		}
		for _, arg := range e.Args {
			if lit, ok := stripParens(arg).(*ast.FuncLit); ok {
				t.scanExpr(lit, false) // captures escape + own scope
				continue
			}
			if escapes {
				t.escapeArgs(arg)
			} else {
				t.scanExpr(arg, false)
			}
		}
		t.scanExpr(e.Fun, false)
	case *ast.FuncLit:
		// Captured obligations escape into the literal...
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o, live := t.live[id.Name]; live && o.kind != kindScratch {
					t.discharge(id.Name)
				}
			}
			return true
		})
		// ...and the literal body is its own obligation scope: a stream
		// opened inside a goroutine must be closed inside it (or escape).
		t.litScope(e)
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
			t.escapeIdents(el)
		}
	case *ast.TypeAssertExpr:
		t.scanExpr(e.X, false)
	case *ast.StarExpr:
		t.scanExpr(e.X, escapes)
	case *ast.KeyValueExpr:
		t.escapeIdents(e.Value)
	}
}

// litScope analyzes a function literal's body as its own obligation
// scope (fresh live set, shared sink).
func (t *tracker) litScope(lit *ast.FuncLit) {
	sub := &tracker{pass: t.pass, fi: t.fi, live: map[string]*obligation{}, sink: t.sink}
	sub.stmts(lit.Body.List)
	sub.exit(lit.Body.End(), nil)
}

// releaseIn discharges obligations satisfied by this call; reports
// whether the call was a release.
func (t *tracker) releaseIn(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if releaseNames[sel.Sel.Name] {
		switch x := sel.X.(type) {
		case *ast.Ident:
			if _, live := t.live[x.Name]; live {
				t.discharge(x.Name)
				return true
			}
		case *ast.SelectorExpr: // resp.Body.Close()
			if id, ok := x.X.(*ast.Ident); ok && x.Sel.Name == "Body" {
				if o, live := t.live[id.Name]; live && o.kind == kindBody {
					t.discharge(id.Name)
					return true
				}
			}
		}
		return false
	}
	if strings.HasPrefix(sel.Sel.Name, "Release") {
		for _, arg := range call.Args {
			if id, ok := stripParens(arg).(*ast.Ident); ok {
				if o, live := t.live[id.Name]; live && o.kind == kindScratch {
					t.discharge(id.Name)
					return true
				}
			}
		}
	}
	return false
}

// escapeArgs discharges non-scratch tracked values passed as arguments:
// the callee took custody (a scratch passed down is use, not release).
func (t *tracker) escapeArgs(arg ast.Expr) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o, live := t.live[id.Name]; live && o.kind != kindScratch {
				t.discharge(id.Name)
			}
		}
		return true
	})
}

// escapeIdents discharges every tracked value referenced in e (stores,
// sends, goroutine captures — the value left this function's custody).
func (t *tracker) escapeIdents(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			t.discharge(id.Name)
		}
		return true
	})
}

func cloneLive(m map[string]*obligation) map[string]*obligation {
	c := make(map[string]*obligation, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func caseArms(body *ast.BlockStmt) [][]ast.Stmt {
	var arms [][]ast.Stmt
	for _, c := range body.List {
		arms = append(arms, c.(*ast.CaseClause).Body)
	}
	return arms
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if c.(*ast.CaseClause).List == nil {
			return true
		}
	}
	return false
}

func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return terminatesStmt(list[len(list)-1])
}

func terminatesStmt(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.CONTINUE || st.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(st.List)
	case *ast.LabeledStmt:
		return terminatesStmt(st.Stmt)
	}
	return false
}

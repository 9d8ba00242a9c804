// Program: the interprocedural layer. A Program indexes a group of
// type-checked packages — every function and method declaration by its
// *types.Func, the named types that can stand behind an interface, the
// variables observed holding a buffered channel — and resolves call
// sites to their target FuncInfo so analyzers can reason across function
// and package boundaries.
//
// Identity is the checker's: a call resolves through Info.Uses to the
// object the callee identifier denotes, whatever the import is renamed
// to and whatever a local shadows; a promoted method resolves to the
// embedded type's declaration; a lock is the *types.Var of the mutex
// field or variable. A call through an interface the program declares
// resolves to every method in the program whose receiver type
// implements that interface (class-hierarchy resolution: sound for the
// group, blind to implementers outside it). An interface declared
// elsewhere (io.Writer, error, types.Importer) is not resolved: most of
// what it stands for lives outside the program, so the in-program
// implementers would be a guess, not a call graph. What does not name a
// declaration of the program — a func value, a builtin, a conversion, a
// dependency that was not loaded for analysis — is unresolved, and
// analyzers treat unresolved calls as opaque.
package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
)

// Program is an indexed group of packages analyzed together.
type Program struct {
	Pkgs []*Package

	funcs map[*types.Func]*FuncInfo
	// group are the type-checked packages of Pkgs.
	group map[*types.Package]bool
	// imports: every package the group can see, by path (the group
	// itself and its transitive imports) — where Object looks names up.
	imports map[string]*types.Package
	// concrete are the group's package-level non-interface named types,
	// in package then name order: the candidates behind an interface call.
	concrete []*types.TypeName
	impls    map[implKey][]*FuncInfo
	// buffered: variables and fields observed being assigned a buffered
	// `make(chan ..., n>0)` anywhere in the group.
	buffered map[*types.Var]bool
	// lockNames renders each lock seen by a summary for diagnostics.
	lockNames map[*types.Var]string
	// The standard-library objects the summaries are about, looked up
	// once; nil when the program does not import their package.
	ctxType, sleep types.Object
	netHTTP        *types.Package

	summaries map[*FuncInfo]*Summary
	transAcq  map[*FuncInfo]map[*types.Var]bool
	annots    map[*ast.File]lineDirectives
	// Stash lets analyzers memoize program-wide computations (their seed
	// objects, lockorder's graph) across per-package passes. Keys are
	// namespaced by analyzer name.
	Stash map[string]interface{}
}

type implKey struct {
	iface  types.Type
	method string
}

// FuncInfo is one function or method declaration in the program.
type FuncInfo struct {
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// String returns the human form used in diagnostics: Recv.Name or Name,
// qualified by the package path's last element.
func (f *FuncInfo) String() string {
	name := f.Obj.Name()
	if recv := f.Obj.Type().(*types.Signature).Recv(); recv != nil {
		if tn := NamedObj(recv.Type()); tn != nil {
			name = tn.Name() + "." + name
		}
	}
	return path.Base(f.Pkg.Path) + "." + name
}

// BuildProgram indexes the packages as one analysis unit.
func BuildProgram(pkgs []*Package) *Program {
	pr := &Program{
		Pkgs:      pkgs,
		funcs:     map[*types.Func]*FuncInfo{},
		group:     map[*types.Package]bool{},
		imports:   map[string]*types.Package{},
		impls:     map[implKey][]*FuncInfo{},
		buffered:  map[*types.Var]bool{},
		lockNames: map[*types.Var]string{},
		summaries: map[*FuncInfo]*Summary{},
		transAcq:  map[*FuncInfo]map[*types.Var]bool{},
		annots:    map[*ast.File]lineDirectives{},
		Stash:     map[string]interface{}{},
	}
	for _, pkg := range pkgs {
		pr.indexPackage(pkg)
	}
	pr.ctxType, pr.sleep = pr.Object("context", "Context"), pr.Object("time", "Sleep")
	pr.netHTTP = pr.imports["net/http"]
	return pr
}

func (pr *Program) indexPackage(pkg *Package) {
	pr.group[pkg.Types] = true
	pr.addImports(pkg.Types)
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
			pr.concrete = append(pr.concrete, tn)
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok {
				if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
					pr.funcs[obj] = &FuncInfo{Pkg: pkg, File: f, Decl: d, Obj: obj}
				}
			}
		}
		// Buffered channels: an assignment or composite-literal field of a
		// buffered make(chan ..., n) marks that variable as a safe-send
		// slot (goleak's "guaranteed counterpart" heuristic).
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && isBufferedMake(pkg.Info, rhs) {
						if v := chanVar(pkg.Info, n.Lhs[i]); v != nil {
							pr.buffered[v] = true
						}
					}
				}
			case *ast.KeyValueExpr:
				if isBufferedMake(pkg.Info, n.Value) {
					if v := VarOf(pkg.Info, n.Key); v != nil {
						pr.buffered[v] = true
					}
				}
			}
			return true
		})
	}
}

func (pr *Program) addImports(tp *types.Package) {
	if pr.imports[tp.Path()] != nil {
		return
	}
	pr.imports[tp.Path()] = tp
	for _, imp := range tp.Imports() {
		pr.addImports(imp)
	}
}

// Imports returns every package the program can see, by path: its own
// packages and their transitive imports.
func (pr *Program) Imports() map[string]*types.Package { return pr.imports }

// Object looks up the package-level object name in the package at
// pkgPath, or — given a member — that named type's method or field. It
// returns nil when no package of the program imports pkgPath, directly
// or not: then nothing of that package can occur in the program either.
// This is how an analyzer's seed table names the objects it is about,
// once per Program, instead of matching spellings at every site.
func (pr *Program) Object(pkgPath, name string, member ...string) types.Object {
	tp := pr.imports[pkgPath]
	if tp == nil {
		return nil
	}
	obj := tp.Scope().Lookup(name)
	if obj == nil || len(member) == 0 {
		return obj
	}
	m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, tp, member[0])
	return m
}

// NamedObj returns the declaring object of t's named type, seeing
// through pointers and aliases; nil for unnamed types.
func NamedObj(t types.Type) *types.TypeName {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// VarOf returns the variable an expression denotes — a local, a
// parameter, a package-level variable, or the struct field a selector
// ends in — seeing through parens and derefs; nil for anything else.
func VarOf(info *types.Info, e ast.Expr) *types.Var {
	var obj types.Object
	switch e := unwrap(e).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(e)
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	if v, ok := obj.(*types.Var); ok {
		return v.Origin()
	}
	return nil
}

// chanVar is the variable holding the channel e denotes; an element of
// a slice or map of channels goes by its container.
func chanVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		ix, ok := unwrap(e).(*ast.IndexExpr)
		if !ok {
			return VarOf(info, e)
		}
		e = ix.X
	}
}

// unwrap strips parens and derefs.
func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

// Callee returns the function or method a call statically names, nil
// for calls of func values, builtins and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// directivesFor parses (and caches) a file's //llmdm: directives.
func (pr *Program) directivesFor(pkg *Package, f *ast.File) lineDirectives {
	if ld, ok := pr.annots[f]; ok {
		return ld
	}
	ld := parseDirectives(pkg.Fset, f)
	pr.annots[f] = ld
	return ld
}

// Waived reports whether pos (in one of pkg's files) carries an
// //llmdm:allow <analyzer> directive on its line or the line above.
// Summaries use this so a waiver's justification covers interprocedural
// consumers of the summarized fact, not just the local analyzer.
func (pr *Program) Waived(pkg *Package, pos token.Pos, analyzer string) bool {
	return pr.marked(pkg, pos, func(d directive) bool { return d.verb == "allow" && d.arg == analyzer })
}

// Bench reports whether pkg is a benchmark suite: one of its package
// clauses carries //llmdm:bench on its line or the line above.
func (pr *Program) Bench(pkg *Package) bool {
	for _, f := range pkg.Files {
		if pr.marked(pkg, f.Package, func(d directive) bool { return d.verb == "bench" }) {
			return true
		}
	}
	return false
}

// marked reports whether pos (in one of pkg's files) carries a directive
// match accepts, on its line or the line above.
func (pr *Program) marked(pkg *Package, pos token.Pos, match func(directive) bool) bool {
	var file *ast.File
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			file = f
			break
		}
	}
	if file == nil {
		return false
	}
	ld := pr.directivesFor(pkg, file)
	line := pkg.Fset.Position(pos).Line
	for _, ds := range [][]directive{ld[line], ld[line-1]} {
		for _, d := range ds {
			if match(d) {
				return true
			}
		}
	}
	return false
}

// FuncOf returns the FuncInfo for a declaration in pkg, or nil.
func (pr *Program) FuncOf(pkg *Package, decl *ast.FuncDecl) *FuncInfo {
	obj, _ := pkg.Info.Defs[decl.Name].(*types.Func)
	return pr.funcs[obj]
}

// BufferedChan reports whether v was observed being assigned a buffered
// channel anywhere in the program.
func (pr *Program) BufferedChan(v *types.Var) bool { return v != nil && pr.buffered[v] }

func isBufferedMake(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || info.Uses[id] != types.Universe.Lookup("make") {
		return false
	}
	if _, ok := info.TypeOf(call.Args[0]).Underlying().(*types.Chan); !ok {
		return false
	}
	// A non-constant size is presumed intentional buffering.
	size := info.Types[call.Args[1]].Value
	return size == nil || constant.Sign(size) != 0
}

func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return lastName(e.X)
	case *ast.CallExpr: // <-ctx.Done() names the method
		return lastName(e.Fun)
	case *ast.ParenExpr:
		return lastName(e.X)
	}
	return ""
}

// Resolve maps a call expression inside f to the declarations it can
// reach: the function or method the callee identifier denotes, or, for
// a call through an interface declared in the program, every method of
// the program whose receiver type implements the interface. Nil when
// the target is not a declaration of the program.
func (pr *Program) Resolve(f *FuncInfo, call *ast.CallExpr) []*FuncInfo {
	fn := Callee(f.Pkg.Info, call)
	if fn == nil {
		return nil
	}
	if fi := pr.funcs[fn.Origin()]; fi != nil {
		return []*FuncInfo{fi}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !pr.group[fn.Pkg()] {
		return nil
	}
	selection := f.Pkg.Info.Selections[sel]
	if selection == nil || !types.IsInterface(selection.Recv()) {
		return nil
	}
	return pr.implementers(selection.Recv(), fn)
}

// implementers lists, memoized, the program's declarations of method
// for the concrete types that implement iface.
func (pr *Program) implementers(iface types.Type, method *types.Func) []*FuncInfo {
	key := implKey{iface, method.Name()}
	if got, ok := pr.impls[key]; ok {
		return got
	}
	it := iface.Underlying().(*types.Interface)
	var out []*FuncInfo
	for _, tn := range pr.concrete {
		t := tn.Type()
		if !types.Implements(t, it) {
			t = types.NewPointer(t)
			if !types.Implements(t, it) {
				continue
			}
		}
		m, _, _ := types.LookupFieldOrMethod(t, false, method.Pkg(), method.Name())
		if fn, ok := m.(*types.Func); ok {
			if fi := pr.funcs[fn.Origin()]; fi != nil {
				out = append(out, fi)
			}
		}
	}
	pr.impls[key] = out
	return out
}

// EachFunc invokes fn for every function declaration in the program, in
// package and then source order.
func (pr *Program) EachFunc(fn func(*FuncInfo)) {
	for _, pkg := range pr.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fi := pr.FuncOf(pkg, fd); fi != nil {
						fn(fi)
					}
				}
			}
		}
	}
}

// TransitiveAcquires returns every lock f may acquire, directly or
// through resolvable callees. Memoized and cycle-safe.
func (pr *Program) TransitiveAcquires(f *FuncInfo) map[*types.Var]bool {
	if got, ok := pr.transAcq[f]; ok {
		return got // nil while f is in progress: a cycle adds nothing new
	}
	pr.transAcq[f] = nil
	out := map[*types.Var]bool{}
	sum := pr.Summary(f)
	for _, a := range sum.Acquires {
		if a.Lock != nil {
			out[a.Lock] = true
		}
	}
	for _, c := range sum.Calls {
		for _, callee := range c.Callees {
			for k := range pr.TransitiveAcquires(callee) {
				out[k] = true
			}
		}
	}
	pr.transAcq[f] = out
	return out
}

// Package reach flags code that no entry point reaches: the lint form of
// the rule that a feature is wired into a binary or deleted.
//
// The roots are every main and init, every package-level var initializer
// and every declaration carrying //llmdm:allow reach <reason>; the waiver
// above a package clause makes the package's exported API a root. A
// package clause marked //llmdm:bench <reason> is a benchmark suite's:
// what it uses or writes outside its own package counts for nothing, so an
// option only the suite sets is flagged; it excuses nothing, so it holds
// under IgnoreAnnotations too. The walk follows Info.Uses, so a function
// passed as a value is reached. A used type or value reaches its named
// type, whose methods are reached when some interface of the program or
// its imports has a method of that name: interface dispatch is resolved by
// name.
//
// It reports every function no root reaches, and every exported field of
// an exported *Config struct in a non-main package that no reached code
// outside that package writes. A program without a package main (a
// subtree such as ./internal/proxy/...) reports nothing;
// one that loads some mains but not all flags what only the missing ones
// use, so the findings hold over ./... alone.
package reach

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the reach rule.
var Analyzer = &analysis.Analyzer{
	Name: "reach",
	Doc: "every function is reached from a main, an init, a package-level var initializer or a " +
		"waived root, and every exported *Config field is written by reached code outside its package",
	Run: run,
}

func run(pass *analysis.Pass) error {
	key := "reach"
	if pass.IgnoreAnnotations {
		key = "reach.ignore" // waivers are not roots either
	}
	w, ok := pass.Prog.Stash[key].(*walk)
	if !ok {
		w = newWalk(pass.Prog, !pass.IgnoreAnnotations)
		pass.Prog.Stash[key] = w
	}
	if !w.hasMain {
		return nil
	}
	pass.EachFile(func(_ string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if fi := pass.Prog.FuncOf(pass.Pkg, n); fi != nil && !w.seen[fi.Obj] {
					pass.Reportf(n.Name.Pos(), "%s is reached from no main, init, var initializer or waived root: wire it or delete it", fi)
				}
				return false
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || pass.IsMain() || !n.Name.IsExported() || !strings.HasSuffix(n.Name.Name, "Config") {
					return false
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if v, _ := pass.Pkg.Info.Defs[name].(*types.Var); name.IsExported() && !w.written[v] {
							pass.Reportf(name.Pos(), "%s.%s is written by no reached code outside %s: make it a constant or wire it",
								n.Name.Name, name.Name, pass.Pkg.Types.Name())
						}
					}
				}
				return false
			}
			return true
		})
	})
	return nil
}

// walk is the program-wide result the per-package passes share.
type walk struct {
	hasMain bool
	seen    map[types.Object]bool // the reached functions and types
	written map[*types.Var]bool   // fields reached code outside their package writes
	bench   map[*analysis.Package]bool
	decls   map[types.Object]decl
	methods map[*types.TypeName][]*types.Func
	ifaces  map[string]bool // the method names some interface declares
	queue   []decl
}

// decl is a declaration to walk: a function, a type or a var spec.
type decl struct {
	pkg  *analysis.Package
	node ast.Node
}

func newWalk(prog *analysis.Program, waivers bool) *walk {
	w := &walk{seen: map[types.Object]bool{}, written: map[*types.Var]bool{}, bench: map[*analysis.Package]bool{},
		decls: map[types.Object]decl{}, methods: map[*types.TypeName][]*types.Func{}, ifaces: map[string]bool{}}
	for _, tp := range prog.Imports() {
		for _, name := range tp.Scope().Names() {
			w.addInterface(tp.Scope().Lookup(name).Type())
		}
	}
	var roots []types.Object
	library := map[*analysis.Package]bool{}
	for _, pkg := range prog.Pkgs {
		w.hasMain = w.hasMain || pkg.Name == "main"
		w.bench[pkg] = prog.Bench(pkg)
		for _, tv := range pkg.Info.Types {
			w.addInterface(tv.Type) // interface literals and constraints
		}
		for _, f := range pkg.Files {
			library[pkg] = library[pkg] || waivers && prog.Waived(pkg, f.Package, "reach")
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						if gd.Tok == token.VAR {
							w.queue = append(w.queue, decl{pkg, s})
						}
					case *ast.TypeSpec:
						tn := pkg.Info.Defs[s.Name].(*types.TypeName)
						w.decls[tn] = decl{pkg, s}
						if library[pkg] && tn.Exported() {
							roots = append(roots, tn)
						}
					}
				}
			}
		}
	}
	prog.EachFunc(func(fi *analysis.FuncInfo) {
		w.decls[fi.Obj] = decl{fi.Pkg, fi.Decl}
		recv := fi.Obj.Type().(*types.Signature).Recv()
		if recv != nil {
			tn := analysis.NamedObj(recv.Type())
			w.methods[tn] = append(w.methods[tn], fi.Obj)
		}
		name := fi.Obj.Name()
		entry := recv == nil && (name == "init" || name == "main" && fi.Pkg.Name == "main")
		api := fi.Obj.Exported() && (recv == nil || analysis.NamedObj(recv.Type()).Exported())
		if entry || waivers && prog.Waived(fi.Pkg, fi.Decl.Pos(), "reach") || library[fi.Pkg] && api {
			roots = append(roots, fi.Obj)
		}
	})
	if !w.hasMain {
		return w
	}
	for _, obj := range roots {
		w.reach(obj)
	}
	for len(w.queue) > 0 {
		d := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		w.inspect(d)
	}
	return w
}

func (w *walk) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			w.ifaces[it.Method(i).Name()] = true
		}
	}
}

// reach marks a function or type reached and queues its declaration; a
// type brings along its methods that some interface names.
func (w *walk) reach(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if w.seen[obj] {
		return
	}
	w.seen[obj] = true
	if d, ok := w.decls[obj]; ok {
		w.queue = append(w.queue, d)
	}
	if tn, ok := obj.(*types.TypeName); ok {
		for _, m := range w.methods[tn] {
			if w.ifaces[m.Name()] {
				w.reach(m)
			}
		}
	}
}

// inspect reaches what d uses, and records the fields of other packages'
// structs it writes: in a composite literal, an assignment, or by taking
// their address. In a benchmark package only what the package declares
// itself is reached, and no write is recorded.
func (w *walk) inspect(d decl) {
	info := d.pkg.Info
	bench := w.bench[d.pkg]
	reach := func(obj types.Object) {
		if !bench || obj.Pkg() == d.pkg.Types {
			w.reach(obj)
		}
	}
	record := func(v *types.Var) {
		if v != nil && v.IsField() && v.Pkg() != d.pkg.Types && !bench {
			w.written[v] = true
		}
	}
	write := func(e ast.Expr) { record(analysis.VarOf(info, e)) }
	ast.Inspect(d.node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			switch obj := info.Uses[n].(type) {
			case *types.Func:
				reach(obj)
			case *types.TypeName, *types.Const, *types.Var:
				// A value reaches its type's methods even where the code
				// holding it never names the type.
				if tn := analysis.NamedObj(obj.Type()); tn != nil {
					reach(tn)
				}
			}
		case *ast.CompositeLit:
			if st, ok := info.TypeOf(n).Underlying().(*types.Struct); ok {
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						write(kv.Key)
					} else {
						record(st.Field(i))
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		}
		return true
	})
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The process shares one FileSet and one standard-library importer. The
// source importer type-checks a stdlib package the first time something
// imports it and caches the result, so every load after the first — the
// fixtures of one test binary, the lint driver's second pass — pays only
// for the module's own packages. One FileSet makes a token.Pos from any
// package (a types.Object declared elsewhere) resolvable and comparable.
var (
	fset  = token.NewFileSet()
	stdMu sync.Mutex // the source importer's cache is not concurrency-safe
	std   = importer.ForCompiler(fset, "source", nil)
)

// ModuleRoot walks up from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// skipDir names directories the loader never descends into: the go tool
// ignores testdata and _-/.-prefixed dirs, and the rest are not Go
// source trees.
func skipDir(name string) bool {
	return name == "testdata" || name == "bin" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// loader type-checks one group of parsed packages. An import resolves,
// in order, to a package of the group (checked on demand, so load order
// does not matter), to a package of the module read from its directory
// (declarations only: it is a dependency, not an analysis subject), and
// to the standard library.
type loader struct {
	root, mod string // module root and path; both "" outside any module
	conf      types.Config
	group     map[string]*Package
	deps      map[string]*types.Package
}

// newLoader reads root's go.mod for the module path and language
// version; root "" gives a loader that resolves only the group and the
// standard library.
func newLoader(root string) (*loader, error) {
	l := &loader{root: root, group: map[string]*Package{}, deps: map[string]*types.Package{}}
	l.conf.Importer = l
	if root == "" {
		return l, nil
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		switch fields[0] {
		case "module":
			l.mod = fields[1]
		case "go":
			l.conf.GoVersion = "go" + fields[1]
		}
	}
	if l.mod == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	return l, nil
}

// cwdLoader resolves module imports against the module enclosing the
// working directory — where llmdm-lint and the tests run — for loads
// that are handed files rather than a module root.
func cwdLoader() (*loader, error) {
	root, err := ModuleRoot(".")
	if err != nil {
		root = ""
	}
	return newLoader(root)
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg := l.group[path]; pkg != nil {
		return pkg.Types, l.check(pkg)
	}
	if tp := l.deps[path]; tp != nil {
		return tp, nil
	}
	if l.mod == "" || (path != l.mod && !strings.HasPrefix(path, l.mod+"/")) {
		stdMu.Lock()
		defer stdMu.Unlock()
		return std.Import(path)
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.mod)))
	pkg, err := parseDir(dir, path)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no Go files for %s in %s", path, dir)
	}
	conf := l.conf
	conf.IgnoreFuncBodies = true
	tp, err := conf.Check(path, fset, pkg.Files, nil)
	if err != nil {
		return nil, err
	}
	l.deps[path] = tp
	return tp, nil
}

// check type-checks a group package once. A type error is returned as
// the checker words it, file:line:col first.
func (l *loader) check(pkg *Package) error {
	switch {
	case pkg.Types != nil:
		return nil
	case pkg.Info != nil:
		return fmt.Errorf("analysis: import cycle through %s", pkg.Path)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tp, err := l.conf.Check(pkg.Path, fset, pkg.Files, pkg.Info)
	if err != nil {
		return err
	}
	pkg.Types = tp
	return nil
}

// checkGroup registers pkgs as the loader's group and type-checks them.
func (l *loader) checkGroup(pkgs []*Package) ([]*Package, error) {
	for _, pkg := range pkgs {
		l.group[pkg.Path] = pkg
	}
	for _, pkg := range pkgs {
		if err := l.check(pkg); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// Load parses and type-checks the packages under root selected by
// patterns. Patterns follow the go tool's shape: "./..." (everything
// under root), "./dir" or "./dir/..." (one subtree); "dir/file.go" is
// not supported. Test files (_test.go) and files excluded by build
// constraints for the host platform are left out: the analyzers govern
// the production code that builds here. A package that does not
// type-check is an error.
func Load(root string, patterns []string) ([]*Package, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := map[string]bool{}
	for _, pat := range patterns {
		rest, recursive := strings.CutSuffix(pat, "/...")
		if pat == "..." {
			rest, recursive = ".", true
		}
		base := filepath.Join(root, filepath.Clean(strings.TrimPrefix(rest, "./")))
		if !recursive {
			dirs[base] = true
			continue
		}
		if err := walkDirs(base, dirs); err != nil {
			return nil, err
		}
	}
	return l.loadDirs(root, l.mod, dirs)
}

// LoadTree loads every package directory under dir as one group whose
// import paths are rooted at prefix: dir itself is prefix, dir/sub is
// prefix/sub (a //llmdm:pkgpath pin overrides either). Imports of the
// enclosing module resolve as for LoadFiles.
func LoadTree(dir, prefix string) ([]*Package, error) {
	l, err := cwdLoader()
	if err != nil {
		return nil, err
	}
	dirs := map[string]bool{}
	if err := walkDirs(dir, dirs); err != nil {
		return nil, err
	}
	return l.loadDirs(dir, prefix, dirs)
}

// walkDirs adds base and every directory under it the loader descends
// into.
func walkDirs(base string, dirs map[string]bool) error {
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != base && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		dirs[path] = true
		return nil
	})
}

// loadDirs parses each directory (import path: prefix plus its path
// below base) and type-checks the lot as one group, in directory order.
func (l *loader) loadDirs(base, prefix string, dirs map[string]bool) ([]*Package, error) {
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	var pkgs []*Package
	for _, dir := range sorted {
		path := prefix
		if rel, err := filepath.Rel(base, dir); err == nil && rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := parseDir(dir, path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return l.checkGroup(pkgs)
}

// LoadDir loads one directory's buildable non-test Go files as a Package
// with the given import path. It returns (nil, nil) when the directory
// holds none.
func LoadDir(dir, importPath string) (*Package, error) {
	pkg, err := parseDir(dir, importPath)
	if pkg == nil || err != nil {
		return nil, err
	}
	return checkAlone(pkg)
}

// LoadFiles parses and type-checks the given files as one Package. The
// package name is taken from the first file; files from a different
// package (e.g. an external test package) are rejected. Imports of the
// module enclosing the working directory resolve to its source.
func LoadFiles(filenames []string, importPath string) (*Package, error) {
	pkg, err := parseFiles(filenames, importPath)
	if err != nil {
		return nil, err
	}
	return checkAlone(pkg)
}

func checkAlone(pkg *Package) (*Package, error) {
	l, err := cwdLoader()
	if err != nil {
		return nil, err
	}
	if _, err := l.checkGroup([]*Package{pkg}); err != nil {
		return nil, err
	}
	return pkg, nil
}

// LoadUnit is LoadFiles for one unit of a build system that has already
// compiled the dependencies (go vet's .cfg): lookup opens the compiler
// export data of an import path.
func LoadUnit(filenames []string, importPath, goVersion string, lookup importer.Lookup) (*Package, error) {
	pkg, err := parseFiles(filenames, importPath)
	if err != nil {
		return nil, err
	}
	var l loader
	l.conf.GoVersion = goVersion
	l.conf.Importer = importer.ForCompiler(fset, "gc", lookup)
	return pkg, l.check(pkg)
}

// parseDir parses the files of dir that build on the host platform,
// test files aside; (nil, nil) when there are none.
func parseDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, nil
	}
	return parseFiles(files, importPath)
}

func parseFiles(filenames []string, importPath string) (*Package, error) {
	pkg := &Package{Path: importPath, Fset: fset}
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		} else if f.Name.Name != pkg.Name {
			return nil, fmt.Errorf("analysis: %s: package %s, want %s", fn, f.Name.Name, pkg.Name)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, fn)
	}
	// A fixture can pin the import path the analyzers should see (the
	// package-path-dependent rules key off it): //llmdm:pkgpath <path>.
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, "//llmdm:pkgpath "); ok {
					pkg.Path = strings.TrimSpace(rest)
				}
			}
		}
	}
	return pkg, nil
}

// Inspect is ast.Inspect re-exported for analyzer brevity.
func Inspect(node ast.Node, fn func(ast.Node) bool) { ast.Inspect(node, fn) }

// Package lockorder checks the program's global lock-acquisition graph.
//
// lockscope (PR 5) keeps any single critical section honest inside one
// function; it cannot see that function A takes mu1 then calls into a
// function whose own body takes mu2, while function B takes mu2 then
// calls into one that takes mu1 — the classic cross-function deadlock
// that only shows up under load. lockorder closes that gap using the
// Program layer's function summaries:
//
//   - every AcquireSite contributes edges held-lock → acquired-lock for
//     each canonical lock already held at the acquire;
//   - every call made while holding a lock contributes edges
//     held-lock → k for every k in the callee's *transitive* acquire
//     set (memoized over the call graph, cycle-safe).
//
// Two shapes are diagnosed, each at its first witness site:
//
//   - a cycle in the graph (A → B and B → A, possibly through longer
//     chains): the locks can be taken in both orders, so two goroutines
//     can deadlock;
//   - a self-edge (A → A): a call chain that re-acquires a lock the
//     caller may still hold — sync.Mutex is not reentrant, so this is a
//     single-goroutine self-deadlock.
//
// Plain edges are *not* findings — layered registries legitimately
// acquire inner locks under outer ones. Only edges that close a loop
// are reported. A lock is the *types.Var of its mutex field or
// package-level variable; locks on locals never enter the global graph.
//
// Escape hatch: //llmdm:allow lockorder <reason> on the witness line.
package lockorder

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the lockorder rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "the global lock-acquisition graph (built from function summaries: locks held at each " +
		"acquire and at each call, with callees' transitive acquires) must be cycle-free, and no " +
		"call chain may re-acquire a lock the caller still holds",
	Run: run,
}

// edge is one lock-order edge with its witness site.
type edge struct {
	from, to *types.Var
	pkg      *analysis.Package
	pos      token.Pos
	desc     string
}

// finding is one diagnostic of the program-wide graph, memoized in
// Prog.Stash so the per-package passes share one computation.
type finding struct {
	pkg *analysis.Package
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) error {
	for _, f := range findings(pass.Prog) {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

const stashKey = "lockorder.findings"

func findings(prog *analysis.Program) []finding {
	if fs, ok := prog.Stash[stashKey].([]finding); ok {
		return fs
	}
	name := prog.LockName
	var edges []edge
	prog.EachFunc(func(f *analysis.FuncInfo) {
		sum := prog.Summary(f)
		for _, a := range sum.Acquires {
			if a.Lock == nil {
				continue
			}
			for _, h := range a.Held {
				if h == a.Lock {
					continue // RLock→RLock etc. handled as call self-edges only
				}
				edges = append(edges, edge{
					from: h, to: a.Lock, pkg: f.Pkg, pos: a.Pos,
					desc: fmt.Sprintf("%s acquires %s while holding %s", f, name(a.Lock), name(h)),
				})
			}
		}
		for _, c := range sum.Calls {
			if len(c.Held) == 0 {
				continue
			}
			acquired := map[*types.Var]bool{}
			for _, callee := range c.Callees {
				for k := range prog.TransitiveAcquires(callee) {
					acquired[k] = true
				}
			}
			for k := range acquired {
				for _, h := range c.Held {
					edges = append(edges, edge{
						from: h, to: k, pkg: f.Pkg, pos: c.Pos,
						desc: fmt.Sprintf("%s calls %s while holding %s; the callee's call graph acquires %s",
							f, c.Expr, name(h), name(k)),
					})
				}
			}
		}
	})
	// Deterministic order: witness position, then edge identity (one
	// FileSet, so positions order across packages).
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		if a.from != b.from {
			return a.from.Pos() < b.from.Pos()
		}
		return a.to.Pos() < b.to.Pos()
	})

	adj := map[*types.Var]map[*types.Var]bool{}
	for _, e := range edges {
		if e.from == e.to {
			continue // self-edges diagnosed directly below
		}
		if adj[e.from] == nil {
			adj[e.from] = map[*types.Var]bool{}
		}
		adj[e.from][e.to] = true
	}

	var out []finding
	seen := map[[2]*types.Var]bool{} // one report per unordered lock pair / self lock
	for _, e := range edges {
		pair := [2]*types.Var{e.from, e.to}
		if e.to.Pos() < e.from.Pos() {
			pair = [2]*types.Var{e.to, e.from}
		}
		if seen[pair] {
			continue
		}
		switch {
		case e.from == e.to:
			seen[pair] = true
			out = append(out, finding{e.pkg, e.pos,
				fmt.Sprintf("lock self-cycle on %s: %s — sync mutexes are not reentrant, "+
					"so this call chain can self-deadlock; restructure or annotate //llmdm:allow lockorder",
					name(e.from), e.desc)})
		case reachable(adj, e.to, e.from):
			seen[pair] = true
			out = append(out, finding{e.pkg, e.pos,
				fmt.Sprintf("lock-order cycle between %s and %s: %s, and another call path "+
					"acquires them in the opposite order — two goroutines can deadlock; pick one "+
					"global order or annotate //llmdm:allow lockorder",
					name(e.from), name(e.to), e.desc)})
		}
	}
	prog.Stash[stashKey] = out
	return out
}

// reachable reports whether from reaches to in the edge adjacency.
func reachable(adj map[*types.Var]map[*types.Var]bool, from, to *types.Var) bool {
	seen := map[*types.Var]bool{}
	stack := []*types.Var{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for m := range adj[n] {
			stack = append(stack, m)
		}
	}
	return false
}

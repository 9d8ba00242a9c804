// Package metricname keeps obs metric names static and well-formed.
//
// A metric name built with fmt.Sprintf or string concatenation is a
// label-cardinality explosion waiting to happen: every distinct value
// mints a new family in the registry and a new series in every scrape.
// Names must be lowercase_snake literals (or constants), with dynamic
// dimensions expressed as label VALUES, which the registry bounds per
// family.
//
// The analyzer inspects every call of (*obs.Registry).Counter, Gauge or
// Histogram (the handle constructors, matched by method object, so a
// Counter method on some other type is not its business) and requires
// the name argument to be a constant expression — a literal, a named
// constant from any package, or constants folded together — whose value
// matches ^[a-z][a-z0-9_]*$. The checker decides constness: a name held
// in a variable, or built by fmt.Sprintf, + on a non-constant, or any
// call, is reported as dynamic. The obs registry enforces the same
// grammar at runtime (obs.CheckMetricName).
//
// The same grammar governs lifecycle event names: calls of
// (*obs.Logger).Event (the ctx-correlated emitter; name at argument
// index 2, after ctx and level) or Emit (the uncorrelated variant; name
// at index 1, after level) get the identical check, since event names
// feed the log_events_total counter's level label and the /debug/events
// name filter — a dynamic event name is the same cardinality explosion
// one hop later. This also covers the slo_* families, whose names are
// plain Counter/Gauge registrations inside the obs SLO tracker.
//
// Alert rule names get the same treatment: calls of
// (*obs.AlertEngine).AddRule (name at argument index 0)
// must pass a lowercase_snake constant, because rule names become
// alert_transition event attributes and /v1/alerts vocabulary — and the
// alert_* / tenant_* metric families registered by the alert engine and
// tenant accountant flow through the ordinary Counter/Gauge checks.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"

	"repro/internal/analysis"
)

// NameRE is the metric-name grammar, shared (by value) with the obs
// registry's runtime guard.
var NameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Analyzer is the metricname rule.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: "obs metric and event names must be lowercase_snake string constants, " +
		"never built with fmt.Sprintf or concatenation (label-cardinality guard)",
	Run: run,
}

// nameArg says which argument of an obs method is a name, and of what.
type nameArg struct {
	kind string
	arg  int
}

// nameMethods are the name-taking methods of repro/internal/obs.
var nameMethods = []struct {
	typ, method string
	nameArg
}{
	{"Registry", "Counter", nameArg{"metric", 0}},
	{"Registry", "Gauge", nameArg{"metric", 0}},
	{"Registry", "Histogram", nameArg{"metric", 0}},
	// Logger.Event(ctx, level, name, kv...), Logger.Emit(level, name, kv...).
	{"Logger", "Event", nameArg{"event", 2}},
	{"Logger", "Emit", nameArg{"event", 1}},
	// AlertEngine.AddRule(name, cond, opts...): rule names land in
	// alert_transition event attributes, the alert_state vocabulary and
	// /v1/alerts — same charter.
	{"AlertEngine", "AddRule", nameArg{"alert-rule", 0}},
}

const stashKey = "metricname.methods"

// methodsOf resolves nameMethods to the program's method objects, once.
func methodsOf(prog *analysis.Program) map[types.Object]nameArg {
	if m, ok := prog.Stash[stashKey].(map[types.Object]nameArg); ok {
		return m
	}
	m := map[types.Object]nameArg{}
	for _, nm := range nameMethods {
		if obj := prog.Object("repro/internal/obs", nm.typ, nm.method); obj != nil {
			m[obj] = nm.nameArg
		}
	}
	prog.Stash[stashKey] = m
	return m
}

func run(pass *analysis.Pass) error {
	methods := methodsOf(pass.Prog)
	pass.EachFile(func(name string, f *ast.File) {
		analysis.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.Pkg.Info, call)
			if fn == nil {
				return true
			}
			if na, ok := methods[fn]; ok && na.arg < len(call.Args) {
				checkNameArg(pass, fn.Name(), na.kind, call.Args[na.arg])
			}
			return true
		})
	})
	return nil
}

func checkNameArg(pass *analysis.Pass, method, kind string, arg ast.Expr) {
	val := pass.Pkg.Info.Types[arg].Value
	if val == nil {
		pass.Reportf(arg.Pos(),
			"%s %s name is built dynamically: use a lowercase_snake string constant and put dynamic dimensions in label values", method, kind)
		return
	}
	name := constant.StringVal(val)
	if NameRE.MatchString(name) {
		return
	}
	switch arg.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		pass.Reportf(arg.Pos(),
			"%s %s name constant %s = %q is not lowercase_snake (want %s)",
			method, kind, analysis.ExprString(arg), name, NameRE.String())
	default:
		pass.Reportf(arg.Pos(),
			"%s %s name %q is not lowercase_snake (want %s)", method, kind, name, NameRE.String())
	}
}

// Command llmdm-lint runs the project's static-analysis suite — the
// five per-function analyzers (ctxflow, lockscope, billmeter, gospawn,
// metricname), the three interprocedural ones (lockorder, reslifecycle,
// goleak) built on the call-graph/summary layer in internal/analysis,
// and reach, which flags what no entry point reaches — over the module.
//
// Standalone (what `make lint` runs):
//
//	llmdm-lint ./...                  # whole module, one shared Program
//	llmdm-lint ./internal/proxy/...   # one subtree
//	llmdm-lint -only ctxflow,gospawn ./...
//	llmdm-lint -list                  # print the analyzers and rules
//	llmdm-lint -json ./...            # machine-readable findings
//	llmdm-lint -waivers ./...         # audit every //llmdm: annotation
//
// Diagnostics print as file:line:col: [analyzer] message. A //llmdm:
// annotation without a reason is itself a finding ([waiver]), so one run
// is the whole gate. Exit codes:
//
//	0  clean (no findings, no reasonless waivers)
//	1  findings (a reasonless waiver is one)
//	2  load error (bad pattern, no go.mod, source that does not parse
//	   or does not type-check — such a tree is never reported clean)
//
// -json emits one object over stdout: {"schema":"llmdm-lint/1",
// "findings":[{file,line,col,analyzer,message,waived}...],"count":N}
// where count is the number of NON-waived findings (the exit-1 set);
// waived findings are included so CI can annotate accepted sites.
//
// -waivers is the listing mode: every //llmdm:allow, //llmdm:detached and
// //llmdm:bench site with its reason (exit 1 if any lacks one):
// annotations are grep-able audit points, and a reasonless waiver is an
// unreviewable one.
//
// There is one mode. The suite's interprocedural analyzers and reach need
// the whole program in one process, so the binary is not a `go vet
// -vettool`: a per-package unit checker could report only a subset of
// what this run reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON findings")
	waivers := flag.Bool("waivers", false, "audit //llmdm: annotation sites; exit 1 on reasonless waivers")
	flag.Parse()

	if *list {
		for _, a := range suite.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := suite.All()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := suite.ByName(strings.TrimSpace(name))
			if a == nil {
				fatalf("unknown analyzer %q (see -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	args := flag.Args()
	if *waivers {
		os.Exit(runWaivers(os.Stdout, args))
	}
	os.Exit(runStandalone(os.Stdout, args, analyzers, *jsonOut))
}

// loadProgram loads the module packages selected by patterns into one
// shared Program. Exit code 2 on any load failure.
func loadProgram(patterns []string) (*analysis.Program, string, error) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		return nil, "", err
	}
	pkgs, err := analysis.Load(root, patterns)
	if err != nil {
		return nil, "", err
	}
	return analysis.BuildProgram(pkgs), root, nil
}

// jsonFinding is one diagnostic in the llmdm-lint/1 schema.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Waived   bool   `json:"waived"`
}

// jsonReport is the -json output document.
type jsonReport struct {
	Schema   string        `json:"schema"`
	Findings []jsonFinding `json:"findings"`
	Count    int           `json:"count"`
}

func runStandalone(w io.Writer, patterns []string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	prog, root, err := loadProgram(patterns)
	if err != nil {
		return loadError(err)
	}
	return runReport(w, prog, root, analyzers, jsonOut)
}

// runReport renders prog's findings to w (text or llmdm-lint/1 JSON)
// and returns the process exit code. Split from runStandalone so tests
// can drive it with a synthetic program.
func runReport(w io.Writer, prog *analysis.Program, root string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	// Two passes over the shared program: the annotation-honoring run
	// is the finding set; the ignoring run additionally surfaces waived
	// sites so -json can report them as accepted. The finding set opens
	// with the waivers nobody can review: those without a reason.
	active := map[string]bool{}
	var activeDiags []analysis.Diagnostic
	for _, wv := range prog.Waivers() {
		if wv.Reason == "" {
			d := analysis.Diagnostic{Pos: wv.Pos, Analyzer: "waiver", Message: "//llmdm:" + wv.Verb + " " + mustSayWhy}
			active[diagKey(d)] = true
			activeDiags = append(activeDiags, d)
		}
	}
	reasonless := activeDiags
	for _, pkg := range prog.Pkgs {
		diags, err := analysis.RunAnalyzersProg(prog, pkg, analyzers, false)
		if err != nil {
			return loadError(err)
		}
		for _, d := range diags {
			active[diagKey(d)] = true
		}
		activeDiags = append(activeDiags, diags...)
	}

	if !jsonOut {
		for _, d := range activeDiags {
			fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n",
				relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
		if len(activeDiags) > 0 {
			fmt.Fprintf(os.Stderr, "llmdm-lint: %d finding(s)\n", len(activeDiags))
			return 1
		}
		return 0
	}

	report := jsonReport{Schema: "llmdm-lint/1", Findings: []jsonFinding{}}
	add := func(d analysis.Diagnostic) {
		waived := !active[diagKey(d)]
		if !waived {
			report.Count++
		}
		report.Findings = append(report.Findings, jsonFinding{
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Waived:   waived,
		})
	}
	for _, d := range reasonless { // no analyzer run surfaces these
		add(d)
	}
	for _, pkg := range prog.Pkgs {
		diags, err := analysis.RunAnalyzersProg(prog, pkg, analyzers, true)
		if err != nil {
			return loadError(err)
		}
		for _, d := range diags {
			add(d)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return loadError(err)
	}
	if report.Count > 0 {
		return 1
	}
	return 0
}

// mustSayWhy is what a reasonless waiver is told, by the [waiver] finding
// and by the -waivers listing alike.
const mustSayWhy = "without a reason — every //llmdm: annotation must say why"

// runWaivers implements the -waivers listing.
func runWaivers(w io.Writer, patterns []string) int {
	prog, root, err := loadProgram(patterns)
	if err != nil {
		return loadError(err)
	}
	return runWaiverReport(w, prog, root)
}

// runWaiverReport renders prog's annotation sites and returns the exit
// code (1 when any waiver lacks a reason).
func runWaiverReport(w io.Writer, prog *analysis.Program, root string) int {
	reasonless := 0
	for _, wv := range prog.Waivers() {
		name := wv.Verb
		if wv.Analyzer != "" {
			name += " " + wv.Analyzer
		}
		reason := wv.Reason
		if reason == "" {
			reason = "(no reason)"
			reasonless++
		}
		fmt.Fprintf(w, "%s:%d: [%s] %s\n", relPath(root, wv.Pos.Filename), wv.Pos.Line, name, reason)
	}
	if reasonless > 0 {
		fmt.Fprintf(os.Stderr, "llmdm-lint: %d waiver(s) %s\n", reasonless, mustSayWhy)
		return 1
	}
	return 0
}

func diagKey(d analysis.Diagnostic) string {
	return fmt.Sprintf("%s:%d:%d:%s:%s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

func relPath(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return path
}

func loadError(err error) int {
	fmt.Fprintf(os.Stderr, "llmdm-lint: %v\n", err)
	return 2
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "llmdm-lint: "+format+"\n", args...)
	os.Exit(2)
}

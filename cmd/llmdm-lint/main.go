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
// -waivers is the listing mode: every //llmdm:allow and //llmdm:detached
// site with its reason (exit 1 if any lacks one): annotations are
// grep-able audit points, and a reasonless waiver is an unreviewable one.
//
// Vettool compatibility: the binary also speaks enough of the `go vet
// -vettool` unit-checker protocol (-V=full, a single *.cfg argument) to
// run under `go vet -vettool=$(which llmdm-lint) ./...`. Standalone mode
// is canonical (and is the only mode with cross-package summaries); the
// vettool path type-checks each unit against the export data its .cfg
// names, analyzes it as a one-package program, and exits 2 on findings
// per that protocol's convention.
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
	version := flag.String("V", "", "vettool version handshake (-V=full)")
	flagDefs := flag.Bool("flags", false, "print flag definitions as JSON (go vet handshake)")
	flag.Parse()

	if *version != "" {
		// The go vet driver parses `name version x` (and for devel
		// builds requires a trailing buildID=); it caches on this line,
		// so any stable version string works.
		fmt.Printf("llmdm-lint version llmdm-suite-v1\n")
		return
	}
	if *flagDefs {
		// go vet asks which tool flags it may forward; we expose none.
		fmt.Println("[]")
		return
	}
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
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVettool(args[0], analyzers))
	}
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

// vetConfig is the subset of the go vet unit-checker config we consume.
type vetConfig struct {
	ImportPath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string // import path as written → package path
	PackageFile map[string]string // package path → export data file
	VetxOutput  string
}

func runVettool(cfgPath string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatalf("%v", err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatalf("parsing %s: %v", cfgPath, err)
	}
	// The driver requires the facts file regardless of findings; the
	// suite exports no facts, so it only says who wrote it.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("llmdm-lint: no facts\n"), 0o666); err != nil {
			fatalf("%v", err)
		}
	}
	// go vet hands the tool every dependency unit, stdlib included; the
	// suite's rules are for this module only.
	if cfg.ImportPath != "repro" && !strings.HasPrefix(cfg.ImportPath, "repro/") {
		return 0
	}
	var files []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return 0
	}
	pkg, err := analysis.LoadUnit(files, cfg.ImportPath, cfg.GoVersion, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s in %s", path, cfgPath)
		}
		return os.Open(file)
	})
	if err != nil {
		fatalf("%v", err)
	}
	diags, err := analysis.RunAnalyzers(pkg, analyzers, false)
	if err != nil {
		fatalf("%v", err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "llmdm-lint: "+format+"\n", args...)
	os.Exit(2)
}

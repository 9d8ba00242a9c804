// Command llmdm-bench regenerates the paper's evaluation: every table and
// figure, printed in the paper's row format.
//
// Usage:
//
//	llmdm-bench              # run everything
//	llmdm-bench -exp table2  # run one experiment
//	llmdm-bench -exp chaos   # fault injection: correct availability/spend vs failure rate
//	llmdm-bench -list        # list experiment IDs
//	llmdm-bench -telemetry   # append each experiment's telemetry delta
//
//	llmdm-bench -bench-json [-bench-dir DIR]       # write BENCH_*.json artifacts
//	llmdm-bench -bench-compare OLD.json NEW.json   # exit 1 on large regressions
//
// With -telemetry, the internal/obs default registry is snapshotted around
// each experiment and the delta — model calls, tokens, spend, cache hits,
// cascade escalations, decomposition savings — is printed after the
// experiment's table.
//
// -bench-json runs the internal/perf suite (serving path + kernels)
// through testing.Benchmark and writes schema-stable BENCH_serving.json
// and BENCH_kernels.json — the repository's recorded perf trajectory.
// -bench-compare diffs two artifacts of the same area and exits nonzero
// when ns/op regresses by more than -bench-ratio (or a benchmark
// disappears); -bench-warn downgrades that to a warning for CI smoke
// jobs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	llmdm "repro"
	"repro/internal/obs"
	"repro/internal/perf"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID (table1..table3, fig1..fig7, ab-*, chaos), 'all' (paper artifacts), or 'ablations'")
	format := flag.String("format", "table", "output format: table or csv")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	telemetry := flag.Bool("telemetry", false, "print a per-experiment telemetry summary (obs registry delta)")
	benchJSON := flag.Bool("bench-json", false, "run the perf suite and write BENCH_serving.json / BENCH_kernels.json")
	benchDir := flag.String("bench-dir", ".", "directory for -bench-json artifacts")
	benchCompare := flag.Bool("bench-compare", false, "compare two bench artifacts: -bench-compare OLD.json NEW.json")
	benchWarn := flag.Bool("bench-warn", false, "with -bench-compare, report regressions but exit 0")
	benchRatio := flag.Float64("bench-ratio", 2.5, "ns/op growth (and derived-metric shrink) factor that counts as a regression")
	flag.Parse()

	if *benchCompare {
		os.Exit(runBenchCompare(flag.Args(), *benchRatio, *benchWarn))
	}
	if *benchJSON {
		// Ctrl-C aborts the suite between model calls.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runBenchJSON(ctx, *benchDir); err != nil {
			fmt.Fprintf(os.Stderr, "llmdm-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range llmdm.ExperimentIDs() {
			fmt.Println(id)
		}
		for _, id := range llmdm.AblationIDs() {
			fmt.Println(id)
		}
		return
	}

	var ids []string
	switch *exp {
	case "all":
		ids = llmdm.ExperimentIDs()
	case "ablations":
		ids = llmdm.AblationIDs()
	default:
		ids = []string{*exp}
	}
	// Ctrl-C cancels the context and the running experiment aborts at its
	// next model call or sweep cell.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, id := range ids {
		before := obs.Default.Snapshot()
		rep, err := llmdm.RunExperiment(ctx, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llmdm-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		switch *format {
		case "csv":
			fmt.Print(rep.CSV())
		default:
			fmt.Println(rep.Format())
		}
		if *telemetry {
			delta := obs.Default.Snapshot().Delta(before)
			fmt.Printf("telemetry (%s):\n%s\n", id, delta.Summary("  "))
		}
	}
}

// runBenchJSON runs both perf areas and writes one artifact per area.
func runBenchJSON(ctx context.Context, dir string) error {
	serving := perf.Run(perf.AreaServing, perf.Serving(ctx))
	win, err := perf.ThroughputWin(ctx)
	if err != nil {
		return err
	}
	serving.Derived = map[string]float64{"sched_throughput_win": win}
	path, err := perf.WriteReport(dir, serving)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks, sched_throughput_win %.2fx)\n", path, len(serving.Benchmarks), win)

	kernels := perf.Run(perf.AreaKernels, perf.Kernels())
	path, err = perf.WriteReport(dir, kernels)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(kernels.Benchmarks))
	return nil
}

// runBenchCompare diffs two artifacts, printing findings; the exit code
// is 1 on regressions unless warnOnly.
func runBenchCompare(args []string, maxRatio float64, warnOnly bool) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "llmdm-bench: -bench-compare needs exactly two artifact paths: OLD.json NEW.json")
		return 2
	}
	oldRep, err := perf.ReadReport(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "llmdm-bench: %v\n", err)
		return 2
	}
	newRep, err := perf.ReadReport(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "llmdm-bench: %v\n", err)
		return 2
	}
	if oldRep.Area != newRep.Area {
		fmt.Fprintf(os.Stderr, "llmdm-bench: comparing area %q against %q\n", oldRep.Area, newRep.Area)
		return 2
	}
	regs := perf.Compare(oldRep, newRep, maxRatio)
	if len(regs) == 0 {
		fmt.Printf("%s: no regressions beyond %.1fx across %d benchmarks\n", newRep.Area, maxRatio, len(newRep.Benchmarks))
		return 0
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s\n", r)
	}
	if warnOnly {
		fmt.Printf("%s: %d regression(s) beyond %.1fx (warn-only mode)\n", newRep.Area, len(regs), maxRatio)
		return 0
	}
	return 1
}

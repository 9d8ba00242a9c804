// Command e2e is the repository's end-to-end serving benchmark: a seeded,
// closed-loop load driver that starts the real proxy.New(cfg).Handler() on
// loopback, drives POST /v1/complete over keep-alive HTTP/1.1, and reports
// the end-to-end metrics of one workload — or, with -trace 1, the per-layer
// metrics of the same workload, each layer timed from outside through its
// public entry point. It touches no program code and claims no gain: it is
// the baseline later claims are measured against. See bench/README.md.
//
//	go run -C bench ./e2e -workload hot_exact -seed 1 -seconds 12 -trace 0
//	go run -C bench ./e2e -all -seed 1          # every workload, both passes
//	go run -C bench ./e2e -all -sets 2 -seed 1  # twice, with the spread report
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: hot_exact, semantic_read, churn_write, stream_cascade or paced_mix")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := flag.Float64("seconds", 12, "length of the measured window")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 runs the traced pass too and reports the per-layer metrics")
	all := flag.Bool("all", false, "run every workload, each pass in a fresh process, and print every metric")
	sets := flag.Int("sets", 1, "with -all: run this many full sets and report the spread between the first two")
	flag.Parse()

	// Every context in the harness derives from this one root.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, *workload, *seed, *seconds, *trace, *all, *sets)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, workload string, seed uint64, seconds float64, trace int, all bool, sets int) int {
	if all {
		return runAll(ctx, seed, seconds, sets)
	}
	sp, ok := specByName(workload, false)
	if !ok || seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: e2e -workload <name> -seed <n> -seconds <s> -trace <0|1>, or e2e -all [-sets 2]")
		return 2
	}
	traceDir := ""
	if trace == 1 {
		traceDir = "out" // bench/out: the command runs from bench/
	}
	res, err := runWorkload(ctx, sp, seed, seconds, traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	correct, err := res.emit(os.Stdout, trace == 1)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	case !correct:
		return 1
	}
	return 0
}

// runChild runs one pass of one workload in a fresh process, passes its
// report through, and returns its result line.
func runChild(ctx context.Context, name string, seed uint64, seconds float64, trace int) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to end
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return resultLine{}, errors.Join(fmt.Errorf("%s -trace %d printed no result line: %w", name, trace, err), runErr)
	}
	return line, nil
}

// set is one full set of runs: workload → metric → value.
type set map[string]map[string]measured

// runAll runs every workload (the untraced pass, then the traced one) `sets`
// times and prints the spread between the first two sets beside the bounds.
// It exits non-zero when a check failed anywhere or a spread exceeds its
// bound.
func runAll(ctx context.Context, seed uint64, seconds float64, sets int) int {
	start := time.Now()
	fmt.Printf("%s, %d cpus, seed %d, window %gs\n", runtime.Version(), runtime.NumCPU(), seed, seconds)
	code := 0
	var runs []set
	for s := 0; s < sets; s++ {
		cur := set{}
		for _, sp := range specs(false) {
			cur[sp.name] = map[string]measured{}
			for trace := 0; trace <= 1; trace++ {
				line, err := runChild(ctx, sp.name, seed, seconds, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "e2e:", err)
					return 2
				}
				if !line.Correct || line.Failed > 0 {
					code = 1
				}
				for name, v := range line.Metrics {
					cur[sp.name][name] = v
				}
			}
		}
		runs = append(runs, cur)
	}
	if len(runs) >= 2 && !spreadReport(os.Stdout, runs[0], runs[1]) {
		code = 1
	}
	fmt.Printf("total wall time %.0fs for %d set(s)\n", time.Since(start).Seconds(), sets)
	return code
}

// spreadReport prints, per end-to-end metric and workload, the two sets'
// values, their relative difference and the metric's bound, and reports
// whether every difference is within its bound.
func spreadReport(w io.Writer, a, b set) bool {
	within := true
	fmt.Fprintf(w, "\nspread between two sets of the same code:\n%-16s %-24s %14s %14s %8s %7s\n",
		"workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, sp := range specs(false) {
		for _, d := range endToEnd {
			x, y := a[sp.name][d.name].Value, b[sp.name][d.name].Value
			diff := relDiff(x, y)
			flag := ""
			if diff > d.bound {
				flag, within = "  EXCEEDS", false
			}
			fmt.Fprintf(w, "%-16s %-24s %14.6g %14.6g %7.2f%% %6.1f%%%s\n", sp.name, d.name, x, y, diff*100, d.bound*100, flag)
		}
	}
	return within
}

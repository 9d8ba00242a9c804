package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric the benchmark reports. BENCHMARK.json lists
// the same names, units, directions and bounds; a test holds the two equal.
// bench/README.md says which end-to-end metric each per-layer metric should
// move, and on which workload.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is how far, as a share of the parent's median, an end-to-end
	// metric may worsen before it is a regression.
	bound float64
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p75_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ttft_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ttft_p75_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "slo_attainment", unit: "ratio", better: "higher", bound: 0.02},
	{name: "success_rate", unit: "ratio", better: "higher", bound: 0.001},
	{name: "spend_microusd_per_req", unit: "microusd/req", better: "lower", bound: 0.15},
	{name: "accuracy", unit: "ratio", better: "higher", bound: 0.04},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "client.latency_p90_ms", unit: "ms", better: "lower"},
	{name: "client.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "client.ttft_p90_ms", unit: "ms", better: "lower"},
	{name: "client.ttft_p99_ms", unit: "ms", better: "lower"},
	{name: "proxy.http.roundtrip_us", unit: "us", better: "lower"},
	{name: "proxy.http.self_us", unit: "us", better: "lower"},
	{name: "proxy.http.decode_us", unit: "us", better: "lower"},
	{name: "proxy.http.encode_us", unit: "us", better: "lower"},
	{name: "proxy.complete_us", unit: "us", better: "lower"},
	{name: "proxy.self_us", unit: "us", better: "lower"},
	{name: "proxy.telemetry_tax_us", unit: "us", better: "lower"},
	{name: "proxy.cache_hit_share", unit: "ratio", better: "higher"},
	{name: "proxy.coalesced_share", unit: "ratio", better: "higher"},
	{name: "semcache.lookup_us", unit: "us", better: "lower"},
	{name: "semcache.lookup_c1_us", unit: "us", better: "lower"},
	{name: "semcache.lookup_wait_us", unit: "us", better: "lower"},
	{name: "semcache.lookup_self_us", unit: "us", better: "lower"},
	{name: "semcache.put_us", unit: "us", better: "lower"},
	{name: "semcache.put_c1_us", unit: "us", better: "lower"},
	{name: "semcache.put_self_us", unit: "us", better: "lower"},
	{name: "semcache.hit_rate", unit: "ratio", better: "higher"},
	{name: "semcache.exact_share", unit: "ratio", better: "higher"},
	{name: "semcache.puts_per_req", unit: "ratio", better: "lower"},
	{name: "semcache.evictions_per_put", unit: "ratio", better: "lower"},
	{name: "semcache.len", unit: "count", better: "lower"},
	{name: "embed.scratch_us", unit: "us", better: "lower"},
	{name: "embed.text_us", unit: "us", better: "lower"},
	{name: "embed.prompt_bytes", unit: "bytes", better: "lower"},
	{name: "vector.search_us", unit: "us", better: "lower"},
	{name: "vector.add_us", unit: "us", better: "lower"},
	{name: "vector.remove_us", unit: "us", better: "lower"},
	{name: "vector.rows", unit: "count", better: "lower"},
	{name: "vector.scan_bytes", unit: "bytes", better: "lower"},
	{name: "cascade.complete_us", unit: "us", better: "lower"},
	{name: "cascade.self_us", unit: "us", better: "lower"},
	{name: "cascade.first_chunk_us", unit: "us", better: "lower"},
	{name: "cascade.steps_per_req", unit: "count", better: "lower"},
	{name: "cascade.escalation_share", unit: "ratio", better: "lower"},
	{name: "cascade.early_exit_share", unit: "ratio", better: "higher"},
	{name: "llm.call_us", unit: "us", better: "lower"},
	{name: "llm.calls_per_req", unit: "count", better: "lower"},
	{name: "llm.stream_chunks_per_req", unit: "count", better: "lower"},
	{name: "sched.submit_us", unit: "us", better: "lower"},
	{name: "sched.queue_wait_us", unit: "us", better: "lower"},
	{name: "sched.batch_size_mean", unit: "count", better: "higher"},
	{name: "sched.bypass_share", unit: "ratio", better: "lower"},
	{name: "resilience.limiter_acquire_ns", unit: "ns", better: "lower"},
	{name: "resilience.breaker_allow_ns", unit: "ns", better: "lower"},
	{name: "resilience.shed_share", unit: "ratio", better: "lower"},
	{name: "obs.span_ns", unit: "ns", better: "lower"},
	{name: "obs.event_ns", unit: "ns", better: "lower"},
	{name: "obs.histogram_ns", unit: "ns", better: "lower"},
	{name: "obs.slo_record_ns", unit: "ns", better: "lower"},
	{name: "obs.tenant_record_ns", unit: "ns", better: "lower"},
	{name: "obs.events_overwritten", unit: "count", better: "lower"},
	{name: "token.count_ns", unit: "ns", better: "lower"},
	{name: "proc.cpu_us_per_req", unit: "us", better: "lower"},
	{name: "proc.allocs_per_req", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_req", unit: "bytes", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "proc.goroutines_end", unit: "count", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "pct", better: "lower"},
	{name: "bench.gen_us_per_req", unit: "us", better: "lower"},
	{name: "bench.span_agreement_pct", unit: "pct", better: "lower"},
	{name: "bench.null_roundtrip_us", unit: "us", better: "lower"},
	{name: "bench.codec_us", unit: "us", better: "lower"},
	{name: "bench.machine_factor", unit: "ratio", better: "lower"},
	{name: "bench.cpu_elsewhere_share", unit: "ratio", better: "lower"},
	{name: "bench.calm_slice_share", unit: "ratio", better: "higher"},
}

// measured is one metric value on the contract's result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints: the contract's JSON object.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// line builds the result line over defs. A metric the workload has no path
// for (the scheduler's queue wait without a scheduler) reads 0: the
// contract wants every name on every workload.
func (res *result) line(defs []metricDef) resultLine {
	out := resultLine{
		Correct:   errors.Join(res.checks...) == nil,
		Attempted: res.win.tally.attempted,
		Failed:    res.win.tally.failed,
		Metrics:   make(map[string]measured, len(defs)),
	}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = measured{Value: v, Unit: d.unit}
	}
	return out
}

// print writes every metric by name with its unit, the quartiles across
// the slices read beside each timing, the sample counts, and the checks.
func (res *result) print(w io.Writer, traced bool) {
	t, win := res.win.tally, &res.win
	fmt.Fprintf(w, "workload %s: %d clients, %d set-up(s), window %.1fs in %d slices\n",
		res.sp.name, clients(), len(res.setups), win.seconds, len(win.slices))
	fmt.Fprintf(w, "  attempted %d  ok %d  failed %d  cache %d  cascade %d  coalesced %d\n",
		t.attempted, t.ok, t.failed, t.cache, t.cascade, t.coalesced)
	fmt.Fprintf(w, "  set-ups: fastest %.6g s, quartiles %.6g %.6g %.6g, slowest %.6g\n", quantile(res.setups, 0),
		quantile(res.setups, 0.25), median(res.setups), quantile(res.setups, 0.75), quantile(res.setups, 1))
	if res.tail != percentileLadder[0] {
		fmt.Fprintf(w, "  note: p99 has fewer than %d samples beyond it in a slice (p%.0f is the highest percentile that has): read client.*_p99_ms as the largest few values\n", minBeyond, res.tail*100)
	}
	fmt.Fprintf(w, "  machine: %.1f%% of its CPU time went elsewhere, timings read from the %d calmest of %d slices\n",
		win.elsewhere*100, len(res.calm), len(win.slices))
	fmt.Fprintf(w, "  machine: null round trip %.1f us (reference %.0f), codec %.2f us (reference %.0f), process used %.0f%% of the CPU time",
		win.nullUS, referenceNullUS, win.codecUS, referenceCodecUS, win.busy*100)
	if res.factor != 1 {
		fmt.Fprintf(w, ": timings at reference speed, 1/%.3f of measured\n", res.factor)
	} else {
		fmt.Fprintln(w, ": timings as measured")
	}
	fmt.Fprintln(w, "end to end:")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.6g %-13s", d.name, res.metrics[d.name], d.unit)
		if raw, ok := res.raw[d.name]; ok && res.factor != 1 {
			fmt.Fprintf(w, " measured %.6g", raw)
		}
		if s, ok := res.spreads[d.name]; ok {
			fmt.Fprintf(w, " slices q1 %.6g q3 %.6g  n %d", s.q1, s.q3, s.n)
		}
		fmt.Fprintln(w)
	}
	if traced {
		fmt.Fprintln(w, "per layer (0 where the workload has no such path):")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %14.6g %-6s", d.name, res.metrics[d.name], d.unit)
			if n, ok := res.counts[d.name]; ok {
				fmt.Fprintf(w, " n %d", n)
			}
			fmt.Fprintln(w)
		}
	}
	if err := errors.Join(res.checks...); err != nil {
		fmt.Fprintf(w, "checks FAILED:\n%v\n", err)
	} else {
		fmt.Fprintln(w, "checks passed: replies, sources, cache-hit texts, stream framing, spend == meters == tenants, nothing in flight")
	}
}

// emit prints the human-readable report and then the result line.
func (res *result) emit(w io.Writer, traced bool) (correct bool, err error) {
	res.print(w, traced)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := res.line(defs)
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return line.Correct, err
}

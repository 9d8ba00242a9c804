package main

import (
	"strings"

	"repro/internal/llm"
)

// sumPrefix sums the snapshot entries of one metric family: every label
// set of name, and for histograms the entry name itself.
func sumPrefix(d map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range d {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// windowLayers derives the per-layer counts and ratios that the program's
// own counters give over the measured window. They need no tracing: each
// is a delta of a counter the layer already keeps.
func (res *result) windowLayers() {
	w, m := &res.win, res.metrics
	d := w.after.snap.Delta(w.before.snap)
	reqs := float64(w.after.stats.Requests - w.before.stats.Requests)

	m["proxy.cache_hit_share"] = per(float64(w.after.stats.CacheHits-w.before.stats.CacheHits), reqs)
	m["proxy.coalesced_share"] = per(float64(w.after.stats.Coalesced-w.before.stats.Coalesced), reqs)

	lookups := d["semcache_lookups_total"]
	exact := d[`semcache_hits_total{kind="exact"}`]
	m["semcache.hit_rate"] = per(exact+d[`semcache_hits_total{kind="semantic"}`], lookups)
	m["semcache.exact_share"] = per(exact, lookups)
	m["semcache.puts_per_req"] = per(d["semcache_puts_total"], reqs)
	m["semcache.evictions_per_put"] = per(d["semcache_evictions_total"], d["semcache_puts_total"])
	end := w.after.snap
	m["semcache.len"] = end["semcache_puts_total"] - end["semcache_evictions_total"] - end["semcache_expired_total"]

	runs := d["cascade_requests_total"]
	m["cascade.steps_per_req"] = per(sumPrefix(d, "cascade_steps_total"), runs)
	m["cascade.escalation_share"] = per(runs-d[`cascade_final_model_total{model="`+llm.NameSmall+`"}`], runs)
	m["cascade.early_exit_share"] = per(sumPrefix(d, "cascade_early_exit_total"), runs)

	m["llm.calls_per_req"] = per(sumPrefix(d, "llm_calls_total"), reqs)
	m["llm.stream_chunks_per_req"] = per(float64(w.tally.chunks), float64(w.tally.ok))

	batches := float64(w.after.sched.Batches - w.before.sched.Batches)
	submitted := float64(w.after.sched.Submitted - w.before.sched.Submitted)
	bypassed := float64(w.after.sched.Bypassed - w.before.sched.Bypassed)
	m["sched.batch_size_mean"] = per(float64(w.after.sched.BatchedItems-w.before.sched.BatchedItems), batches)
	m["sched.bypass_share"] = per(bypassed, submitted+bypassed)
	m["resilience.shed_share"] = per(float64(w.after.stats.Shed-w.before.stats.Shed), reqs)
	m["obs.events_overwritten"] = float64(w.after.overwritten - w.before.overwritten)

	ok := float64(w.tally.ok)
	m["proc.cpu_us_per_req"] = per(float64(w.proc.cpu.Microseconds()), ok)
	m["proc.allocs_per_req"] = per(float64(w.proc.mallocs), ok)
	m["proc.alloc_bytes_per_req"] = per(float64(w.proc.bytes), ok)
	m["proc.gc_cycles"] = float64(w.proc.gcs)
	m["proc.gc_pause_ms_total"] = float64(w.proc.pauses) / 1e6
	m["proc.goroutines_end"] = float64(w.goroutines)
}

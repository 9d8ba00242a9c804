package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sched"
)

const (
	// warmupShare of the window runs untimed first, so the caches, pools
	// and the scheduler's adaptive window have settled.
	warmupShare = 0.1
	// pacedPrefillWorkers send the paced workload's set-up requests: more
	// than the measured clients, so the set-up batches and is not one paced
	// sleep after another. Every other set-up is CPU-bound and sent by as
	// many workers as there are clients: eight workers on two cores time the
	// scheduler, and hot_exact's 40 ms set-up read anywhere from 30 to 44 ms.
	pacedPrefillWorkers = 8
	// The set-up behind setup_s is repeated until there are setupReps of
	// them and they have taken setupFloor of the window's length together (a
	// set-up of a few milliseconds needs many repeats for a steady median),
	// but not started again when one more would end past setupBudget, or
	// once there are setupCap.
	setupReps   = 3
	setupCap    = 400
	setupFloor  = 0.05
	setupBudget = 6 * time.Second

	// The window is cut into slices of sliceSamples requests at the warm-up's
	// rate — that leaves a p99 its ten samples beyond, and a slice short
	// enough to lie in one state of the machine more often than not — but no
	// shorter than minSliceSeconds and never fewer than minSlices.
	sliceSamples    = 1000
	minSliceSeconds = 0.25
	minSlices       = 4

	// referenceNullUS and referenceCodecUS are the probe's two readings on the
	// quiet box the baseline was taken on: see probe.
	referenceNullUS  = 24.0
	referenceCodecUS = 4.0

	// A slice is calm when at most calmShare of the machine's CPU time during
	// it went elsewhere: taken by the hypervisor for a neighbour, or used by
	// another process. The probe does not see that: a gap of milliseconds
	// lands on the request that takes milliseconds, seldom on the probe. The
	// timing metrics are read from the calm slices; when fewer than calmQuorum
	// of the slices are calm, from the calmest calmQuorum of them.
	calmShare  = 0.03
	calmQuorum = 0.25
)

// clients is the closed-loop client count: callers of an LLM proxy in a
// data pipeline block on the reply, and with the driver in the same
// process more connections than cores would queue in the generator.
func clients() int { return min(runtime.NumCPU(), 4) }

// expectations remembers, per popular prompt, the text the cascade answered
// with, so a later cache hit can be checked byte for byte.
type expectations []atomic.Pointer[string]

// check compares a reply with what the request allows. It returns whether
// the answer was accurate, or an error for a failed correctness check.
func (e expectations) check(r request, a answer) (accurate bool, err error) {
	switch a.source {
	case "cache":
		if r.cold {
			return false, fmt.Errorf("never-seen prompt %d answered from the cache", r.id)
		}
		if want := e[r.id].Load(); want != nil && *want != a.text {
			return false, fmt.Errorf("cache hit for prompt %d returned %q, its first answer was %q", r.id, a.text, *want)
		}
	case "cascade", "coalesced":
		if !r.cold && r.id < len(e) {
			e[r.id].CompareAndSwap(nil, &a.text)
		}
	default:
		return false, fmt.Errorf("source %q is not allowed", a.source)
	}
	return a.text == r.fields.Gold, nil
}

// tally is what the clients saw over one phase: the warm-up, or one slice of
// the window.
type tally struct {
	lat, ttft []float64 // ms; ttft only on the streamed workload
	// null and codec are the two readings of the machine-speed probe, µs, one
	// of each after every request (see probe).
	null, codec []float64
	streamed    bool
	seconds     float64 // how long the phase ran

	attempted, failed, ok, accurate, withinSLO int
	cache, cascade, coalesced, chunks          int
	firstFailure                               error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstFailure == nil {
		t.firstFailure = err
	}
}

// reset empties t for the next phase and keeps its sample buffers.
func (t *tally) reset() {
	*t = tally{lat: t.lat[:0], ttft: t.ttft[:0], null: t.null[:0], codec: t.codec[:0], streamed: t.streamed}
}

// merge adds o's counts to t; the samples stay where they are.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ok += o.ok
	t.accurate += o.accurate
	t.withinSLO += o.withinSLO
	t.cache += o.cache
	t.cascade += o.cascade
	t.coalesced += o.coalesced
	t.chunks += o.chunks
	if t.firstFailure == nil {
		t.firstFailure = o.firstFailure
	}
}

func (t *tally) record(sp spec, rep reply, a answer, accurate bool) {
	lat := float64(rep.done-rep.sent) / 1e6
	limited := lat
	t.lat = append(t.lat, lat)
	if t.streamed {
		limited = float64(rep.first-rep.sent) / 1e6
		t.ttft = append(t.ttft, limited)
	}
	t.ok++
	if limited <= sp.sloMS {
		t.withinSLO++
	}
	if accurate {
		t.accurate++
	}
	switch a.source {
	case "cache":
		t.cache++
	case "cascade":
		t.cascade++
	case "coalesced":
		t.coalesced++
	}
	t.chunks += a.chunks
}

// loop is the closed loop, kept from phase to phase: the clients'
// keep-alive connections, the request counter and the sample buffers. Every
// client takes one reading of the machine's speed after each request (see
// probe). The buffers are reused and a phase's samples are gone when the
// next one starts, so the harness's own heap stays flat through the window.
// A heap that grew with every sample kept would make the collector run less
// often as the window went on, and a small program would read faster the
// longer it was measured.
type loop struct {
	st     *stack
	sp     spec
	gen    *generator
	exp    expectations
	next   atomic.Int64 // index of the next request
	cls    []*client
	probes []*probe // one a client
	per    []*tally // one a client
	all    tally    // the clients' tallies together: what run returns
}

func newLoop(st *stack, sp spec, gen *generator, exp expectations, nullURL string) *loop {
	l := &loop{st: st, sp: sp, gen: gen, exp: exp, all: tally{streamed: sp.stream}}
	for c := 0; c < clients(); c++ {
		l.cls = append(l.cls, newClient(st.url))
		l.probes = append(l.probes, &probe{null: newClient(nullURL)})
		l.per = append(l.per, &tally{streamed: sp.stream})
	}
	return l
}

func (l *loop) close() {
	for c := range l.cls {
		l.cls[c].close()
		l.probes[c].null.close()
	}
}

// run drives the closed loop for d: each client draws the next request
// index, sends, reads, checks, and records into its own tally, then takes
// the probe. It returns the tallies together once every client has stopped;
// the result is valid until the next run.
func (l *loop) run(ctx context.Context, d time.Duration) *tally {
	start := nowNS()
	fanOut(l.st.reg, len(l.cls), func(c int) {
		t, cl, pr := l.per[c], l.cls[c], l.probes[c]
		t.reset()
		for ctx.Err() == nil && nowNS()-start < int64(d) {
			r := l.gen.request(int(l.next.Add(1) - 1))
			rep := cl.do(ctx, r)
			t.attempted++
			if a, err := checkReply(rep, l.sp.stream); err != nil {
				t.fail(err)
			} else if accurate, err := l.exp.check(r, a); err != nil {
				t.fail(err)
			} else {
				t.record(l.sp, rep, a, accurate)
			}
			pr.take(ctx, t)
		}
	})
	l.all.reset()
	l.all.seconds = float64(nowNS()-start) / 1e9
	for _, t := range l.per {
		l.all.merge(t)
		l.all.lat = append(l.all.lat, t.lat...)
		l.all.ttft = append(l.all.ttft, t.ttft...)
		l.all.null = append(l.all.null, t.null...)
		l.all.codec = append(l.all.codec, t.codec...)
	}
	return &l.all
}

// prefill sends prompts 0..sp.prefill-1 once each, so the cache holds them,
// and records the text each was answered with.
func prefill(ctx context.Context, st *stack, sp spec, gen *generator, exp expectations) error {
	var next atomic.Int64
	errs := make([]error, clients())
	if sp.paced {
		errs = make([]error, pacedPrefillWorkers)
	}
	fanOut(st.reg, len(errs), func(w int) {
		cl := newClient(st.url)
		defer cl.close()
		for ctx.Err() == nil && errs[w] == nil {
			id := int(next.Add(1) - 1)
			if id >= sp.prefill {
				return
			}
			a, err := checkReply(cl.do(ctx, gen.prefillRequest(id)), false)
			switch {
			case err != nil:
				errs[w] = fmt.Errorf("prefill %d: %w", id, err)
			case a.source != "cascade":
				errs[w] = fmt.Errorf("prefill %d: source %q, want cascade", id, a.source)
			default:
				exp[id].Store(&a.text)
			}
		}
	})
	return errors.Join(append(errs, ctx.Err())...)
}

// counters is a reading of the program's own counters, taken before and
// after the window. The null server keeps none.
type counters struct {
	stats       proxy.Stats
	sched       sched.Stats
	snap        obs.Snapshot
	overwritten uint64
}

func readCounters(st *stack) counters {
	c := counters{stats: st.proxy.Stats(), snap: st.reg.Snapshot(), overwritten: st.proxy.Events().Overwritten()}
	c.sched, _ = st.proxy.SchedStats()
	return c
}

// invariants checks what must hold once the clients have stopped: spend
// agrees across the proxy, the models' meters and the tenant table, and
// nothing is left in flight.
func invariants(st *stack) error {
	var errs []error
	spend := int64(st.proxy.Stats().Spend)
	if meters := int64(st.family.TotalSpend()); meters != spend {
		errs = append(errs, fmt.Errorf("Stats().Spend %d != sum of family meters %d", spend, meters))
	}
	var tenants int64
	for _, ts := range st.proxy.Tenants().Snapshot(0).Tenants {
		tenants += ts.SpendMicroUSD
	}
	if tenants != spend {
		errs = append(errs, fmt.Errorf("Stats().Spend %d != sum over tenants %d", spend, tenants))
	}
	if v := st.reg.Gauge("proxy_inflight").Value(); v != 0 {
		errs = append(errs, fmt.Errorf("proxy_inflight is %v after the window", v))
	}
	if v := st.reg.Gauge("limiter_inflight").Value(); v != 0 {
		errs = append(errs, fmt.Errorf("limiter holds %v slots after the window", v))
	}
	return errors.Join(errs...)
}

// slice is one slice of the window, reduced to what the metrics need; its
// samples are gone by the time the next slice starts.
type slice struct {
	ok int
	// attempted and withinSLO are the requests sent during the slice and
	// those of them answered within the workload's latency limit.
	attempted, withinSLO int
	// timings holds the slice's timing metrics as measured, in the order of
	// timingNames.
	timings [len(timingNames)]float64
	// nullUS and codecUS are the medians of the probe's two readings during
	// the slice.
	nullUS, codecUS float64
	// elsewhere is the share of the machine's CPU time during the slice that
	// went to something other than this process.
	elsewhere float64
}

// timingNames are the metrics read per slice: the throughput the clients
// would reach with no work of their own between two requests (clients over
// mean latency, req/s), then latency and time to first token, ms, at the
// percentiles of timingQuantiles. Throughput gets better as it grows; the
// rest as they shrink. The median and the upper quartile are end-to-end
// metrics with a bound; p90 and p99 are printed with the per-layer metrics,
// because on this box they do not repeat from run to run (bench/README.md).
var timingNames = [...]string{"throughput_rps",
	"latency_p50_ms", "latency_p75_ms", "client.latency_p90_ms", "client.latency_p99_ms",
	"ttft_p50_ms", "ttft_p75_ms", "client.ttft_p90_ms", "client.ttft_p99_ms"}

var timingQuantiles = [...]float64{0.5, 0.75, 0.9, 0.99}

// reduce sorts t's samples in place and reads the slice's timings off them.
func reduce(t *tally, elsewhere float64) slice {
	sort.Float64s(t.lat)
	first := t.lat // JSON: the first token arrives with the body
	if t.streamed {
		sort.Float64s(t.ttft)
		first = t.ttft
	}
	s := slice{ok: t.ok, attempted: t.attempted, withinSLO: t.withinSLO, nullUS: median(t.null), codecUS: median(t.codec), elsewhere: elsewhere}
	s.timings[0] = per(float64(clients())*1e3, mean(t.lat))
	for i, q := range timingQuantiles {
		s.timings[1+i] = sortedQuantile(t.lat, q)
		s.timings[1+len(timingQuantiles)+i] = sortedQuantile(first, q)
	}
	return s
}

// atReference returns the slice's timings at reference machine speed: a
// machine on which the null server's round trip takes factor times the
// reference's runs every CPU-bound step that much slower.
func (s slice) atReference(factor float64) [len(timingNames)]float64 {
	out := s.timings
	out[0] *= factor
	for i := 1; i < len(out); i++ {
		out[i] /= factor
	}
	return out
}

// factor is how much slower than the reference the machine ran during the
// slice: the geometric mean of the probe's two readings over their
// references. It is 1 when the probe read nothing.
func (s slice) factor() float64 {
	if s.nullUS <= 0 || s.codecUS <= 0 {
		return 1
	}
	return math.Sqrt(s.nullUS / referenceNullUS * s.codecUS / referenceCodecUS)
}

// calmest returns the indices of the slices the timing metrics are read
// from: the calm ones, or — when fewer than calmQuorum of the slices are
// calm — the calmest calmQuorum of them. The choice looks at what the
// machine did during a slice and never at what the slice measured.
func calmest(slices []slice) []int {
	order := make([]int, len(slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slices[order[a]].elsewhere < slices[order[b]].elsewhere })
	n := 0
	for n < len(order) && slices[order[n]].elsewhere <= calmShare {
		n++
	}
	n = max(n, int(math.Ceil(calmQuorum*float64(len(order)))))
	keep := order[:min(n, len(order))]
	sort.Ints(keep)
	return keep
}

// sliceCount cuts a window of the given length so that a slice holds
// sliceSamples requests at rps, is no shorter than minSliceSeconds, and there
// are at least minSlices of them.
func sliceCount(seconds, rps float64) int {
	each := math.Max(minSliceSeconds, sliceSamples/math.Max(rps, 1))
	return max(minSlices, int(seconds/each))
}

// window is the measured window: one reduced slice after another, the
// clients' counts over all of them, the program's counters around it and
// what the process used inside the slices.
type window struct {
	seconds       float64
	slices        []slice
	tally         *tally // the slices' counts, without their samples
	before, after counters
	proc          procUse
	goroutines    int // at the end of the last slice
	// nullUS and codecUS are the probe's readings, the medians over the slices;
	// busy is the share of the machine's CPU time the process used during the
	// slices and elsewhere the share that went to something else.
	nullUS, codecUS, busy, elsewhere float64
}

// result is one run of one workload.
type result struct {
	sp      spec
	setups  []float64 // seconds, one per repeated set-up
	win     window
	metrics map[string]float64
	spreads map[string]summary // the timing metrics' quartiles across slices
	counts  map[string]int     // samples behind each per-layer timing
	// tail is the highest percentile with minBeyond samples beyond it in
	// every slice: 0.99, unless the workload is too slow for slices that long.
	tail float64
	// calm lists the slices the timing metrics were read from.
	calm []int
	// factor is how much slower than the reference the machine ran, the
	// median over the slices; raw holds the timing metrics as measured.
	factor float64
	raw    map[string]float64
	checks []error
}

// setUp builds the stack and fills the cache: everything before warm-up.
func setUp(ctx context.Context, sp spec, gen *generator, traced bool) (*stack, expectations, error) {
	st, err := startStack(sp, traced, false)
	if err != nil {
		return nil, nil, err
	}
	exp := make(expectations, max(sp.universe, sp.prefill))
	if err := prefill(ctx, st, sp, gen, exp); err != nil {
		return nil, nil, errors.Join(err, st.close(ctx))
	}
	return st, exp, nil
}

// runWorkload runs set-up, warm-up and the measured window for sp, then —
// when traceDir is not empty — the traced pass, which writes its spans
// there. The returned result holds every metric measured.
func runWorkload(ctx context.Context, sp spec, seed uint64, seconds float64, traceDir string) (*result, error) {
	traced := traceDir != ""
	gen := newGenerator(sp, seed)
	res := &result{sp: sp, metrics: map[string]float64{}, spreads: map[string]summary{}, counts: map[string]int{}}

	// Set-up, repeated: setup_s is the median, and only the last stack is
	// kept. A traced run reports no setup_s and sets up once.
	var st *stack
	var exp expectations
	again := func(spent time.Duration) bool {
		n := len(res.setups)
		if n == 0 {
			return true
		}
		last := time.Duration(res.setups[n-1] * float64(time.Second))
		return !traced && (n < setupReps || spent.Seconds() < setupFloor*seconds) && n < setupCap && spent+last <= setupBudget
	}
	for began := time.Now(); again(time.Since(began)); {
		if st != nil {
			if err := st.close(ctx); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, exp, err = setUp(ctx, sp, gen, traced); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	defer func() { res.checks = append(res.checks, st.close(ctx)) }()

	// The stacks set up and thrown away are garbage by now; collecting them
	// here starts every window from the same heap, however often set-up ran.
	runtime.GC()
	null, err := startNullServer(st.reg)
	if err != nil {
		return nil, err
	}
	lp := newLoop(st, sp, gen, exp, null.url)
	defer lp.close()
	d := time.Duration(seconds * float64(time.Second))
	warm := lp.run(ctx, time.Duration(warmupShare*float64(d)))

	// The window: slice by slice, with a reading of where the machine's CPU
	// time went during each.
	w := &res.win
	*w = window{seconds: seconds, tally: &tally{}, before: readCounters(st)}
	n := sliceCount(seconds, per(float64(warm.ok), warm.seconds))
	each := d / time.Duration(n)
	for s := 0; s < n; s++ {
		machine, from := readMachine(), readProcUse()
		t := lp.run(ctx, each)
		used := w.proc.addSince(from)
		elsewhere := readMachine().elsewhereSince(machine, used)
		w.goroutines = runtime.NumGoroutine()
		w.slices = append(w.slices, reduce(t, elsewhere))
		w.tally.merge(t)
	}
	w.after = readCounters(st)
	lp.close()
	res.checks = append(res.checks, null.close(ctx))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.checks = append(res.checks, invariants(st), w.tally.firstFailure)
	res.endToEnd()
	res.windowLayers()

	if traced {
		if err := runLadder(ctx, res, st, gen, exp, traceDir); err != nil {
			return nil, err
		}
	}
	res.checks = append(res.checks, res.shareChecks())
	return res, nil
}

// endToEnd reduces the window's slices to the end-to-end metrics and
// measures the live heap.
//
// The timings are read from the calm slices (see calmest), each at reference
// machine speed (see probe) unless the workload waits on timers, and the
// median across those slices is reported; the values as measured are kept
// for the report. slo_attainment counts the requests of the same slices:
// against a fixed limit, a slice the machine spent elsewhere is all misses.
func (res *result) endToEnd() {
	w, m := &res.win, res.metrics
	t := w.tally
	res.calm = calmest(w.slices)
	res.raw = map[string]float64{}
	// A slower machine does not lengthen a paced sleep.
	rescaled := !res.sp.paced

	var oks []int
	var nulls, codecs, factors, elsewhere []float64
	for _, s := range w.slices {
		oks = append(oks, s.ok)
		nulls = append(nulls, s.nullUS)
		codecs = append(codecs, s.codecUS)
		factors = append(factors, s.factor())
		elsewhere = append(elsewhere, s.elsewhere)
	}
	res.tail = supportedTail(oks)
	w.nullUS, w.codecUS = median(nulls), median(codecs)
	w.elsewhere = mean(elsewhere)
	w.busy = w.proc.cpu.Seconds() / (w.seconds * float64(runtime.NumCPU()))
	res.factor = 1
	if rescaled && len(factors) > 0 {
		res.factor = median(factors)
	}

	for i, name := range timingNames {
		var measured, reported []float64
		for _, c := range res.calm {
			s := w.slices[c]
			factor := 1.0
			if rescaled {
				factor = s.factor()
			}
			measured = append(measured, s.timings[i])
			reported = append(reported, s.atReference(factor)[i])
		}
		res.raw[name] = median(measured)
		res.spreads[name] = acrossSlices(reported, t.ok)
		m[name] = res.spreads[name].value
	}
	attempted, withinSLO := 0, 0
	for _, c := range res.calm {
		attempted += w.slices[c].attempted
		withinSLO += w.slices[c].withinSLO
	}
	m["setup_s"] = median(res.setups)
	m["slo_attainment"] = ratio(withinSLO, attempted)
	m["success_rate"] = ratio(t.attempted-t.failed, t.attempted)
	m["spend_microusd_per_req"] = per(float64(w.after.stats.Spend-w.before.stats.Spend), float64(t.ok))
	m["accuracy"] = ratio(t.accurate, t.ok)
	m["bench.null_roundtrip_us"] = w.nullUS
	m["bench.codec_us"] = w.codecUS
	m["bench.machine_factor"] = res.factor
	m["bench.cpu_elsewhere_share"] = w.elsewhere
	m["bench.calm_slice_share"] = ratio(len(res.calm), len(w.slices))

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m["live_heap_mb"] = float64(ms.HeapInuse) / (1 << 20)
}

func ratio(a, b int) float64 { return per(float64(a), float64(b)) }

// per is v/by, and 0 when there was nothing to divide by.
func per(v, by float64) float64 {
	if by == 0 {
		return 0
	}
	return v / by
}

// fanOut runs fn(worker) on n managed goroutines and waits for all of them.
func fanOut(reg *obs.Registry, n int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		obs.Go(reg, "bench_worker", func() {
			defer wg.Done()
			fn(w)
		})
	}
	wg.Wait()
}

// shareChecks holds the workload to the mix of sources it was built for.
func (res *result) shareChecks() error {
	sp, t := res.sp, res.win.tally
	var errs []error
	if c := ratio(t.cache, t.ok); c < sp.minCache || c > sp.maxCache {
		errs = append(errs, fmt.Errorf("cache share %.4f outside [%.2f, %.2f]", c, sp.minCache, sp.maxCache))
	}
	if c := ratio(t.cascade, t.ok); c < sp.minCascade {
		errs = append(errs, fmt.Errorf("cascade share %.4f below %.2f", c, sp.minCascade))
	}
	if sp.paraphrase {
		if x := res.metrics["semcache.exact_share"]; x >= 0.05 {
			errs = append(errs, fmt.Errorf("exact share %.4f: the paraphrases are hitting the exact map", x))
		}
	}
	return errors.Join(errs...)
}

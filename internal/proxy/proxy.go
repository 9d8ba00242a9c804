// Package proxy implements the LLM serving proxy of the paper's Section
// III-B: "a proxy connected to popular LLMs ... often receives multiple
// simultaneous queries. Many of these queries may be similar, presenting an
// opportunity to reduce LLM usage costs."
//
// The proxy stacks the paper's optimizations in front of the model family:
//
//  1. a semantic cache (Section III-C) answers repeated or near-duplicate
//     queries without any model call;
//  2. in-flight deduplication coalesces concurrent identical queries into
//     one upstream call (the singleflight pattern);
//  3. the LLM cascade (Section III-B1) routes what remains, starting cheap
//     and escalating on low confidence.
//
// Around that stack sits a resilience layer for heavy-traffic serving:
//
//   - a concurrency limiter at the front door sheds load instead of
//     queueing without bound (internal/resilience.Limiter);
//   - the upstream cascade call is detached from the leader's context, so
//     one client's cancellation never fails its coalesced cohort, and is
//     bounded by its own deadline;
//   - per-model circuit breakers (internal/resilience.Breaker) let the
//     cascade skip tiers that are actively failing.
//
// When the whole cascade still fails, the request fails: the client gets
// the error, never another question's answer from the cache.
//
// All of it is one pipeline with two read modes. Every request runs the
// same front half — admission, cache lookup, join or lead the in-flight
// call for its request (every field that shapes the answer, not only the
// prompt) — and every in-flight call is one detached upstream
// cascade run pumping chunks into a replay log that its clients (the
// leader included) read. CompleteStream hands the caller that reader;
// Complete drains it and returns the settled Answer. See stream.go.
//
// Every request is metered into an obs.Registry (GET /metrics) and gets a
// trace ID. Its trace — a root span with cache-lookup and per-cascade-step
// children, kept in a bounded ring (GET /debug/traces) — and its events
// below Warn are head-sampled: the proxy keeps at most as many traces a
// second as the ring holds, and finish publishes the trace of every
// request it did not keep that failed, was shed or missed its class's
// latency target.
//
// Concurrency design: the proxy's only lock is the in-flight table's, and
// it is never held across the semantic cache lookup — which computes a
// query embedding and is the most expensive non-model step — nor across an
// upstream call; the lifetime counters are atomics. (The cache's lookups do
// not serialize either: their scans run outside semcache's mutex, which is
// held only for a hit's bookkeeping.)
//
// It is exposed over HTTP by cmd/llmdm-proxy and exercised with httptest in
// the package tests.
package proxy

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/cascade"
	"repro/internal/core/semcache"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/token"
)

// Answer is the proxy's response to one query: the settled half of the
// request record, whichever way the client read it. The HTTP replies
// (CompletionResponse, StreamDone) are projections of it.
type Answer struct {
	Text       string
	Model      string  // "cache" when served from cache
	Confidence float64 // 1.0 for cache hits
	// Source explains how the answer was produced: "cache", "coalesced",
	// "cascade" or "error".
	Source string
	Cost   token.Cost
	// Trace is the request's trace ID — the key into /debug/traces and
	// /debug/events, set even on errors so failures stay explainable.
	Trace string
	// Elapsed is the request's wall time as the proxy measured it, from
	// arrival (any wait for a limiter slot included) to the terminal
	// bookkeeping — the figure the latency histograms, the SLO record and
	// the terminal event carry.
	Elapsed time.Duration
	// Chunks is how many chunks the client was delivered (a cache hit is
	// one) and Tier the cascade tier of the last of them.
	Chunks, Tier int
}

// Stats are the proxy's lifetime counters.
type Stats struct {
	Requests   int64
	CacheHits  int64
	Coalesced  int64
	ModelCalls int64
	// Shed counts requests rejected by the concurrency limiter.
	Shed  int64
	Spend token.Cost
	// Streams counts requests served through CompleteStream (they also
	// count in Requests).
	Streams int64
}

// upstreamDeadline bounds each cascade run. Because the upstream call is
// detached from the requesting client's context (so a canceled leader
// cannot poison its coalesced cohort), this deadline is what ultimately
// reaps a hung upstream.
const upstreamDeadline = 30 * time.Second

// errUpstreamPanic ends the call of a cascade run that panicked.
var errUpstreamPanic = errors.New("proxy: upstream panicked")

// Config parameterizes a Proxy.
type Config struct {
	// Models is the cascade chain, cheapest first. Defaults to the standard
	// family.
	Models []llm.Model
	// Threshold is the cascade decision threshold. Defaults to
	// cascade.DefaultTau (0.62).
	Threshold float64
	// ExitThreshold arms mid-generation early exit on streamed requests:
	// a non-final tier whose chunk confidence drops below it is aborted
	// and escalated, billing only the chunks already emitted. Defaults
	// to 0.35 (collapse, well under the accept threshold); set
	// DisableEarlyExit to turn it off.
	ExitThreshold    float64
	DisableEarlyExit bool
	// CacheCapacity bounds the semantic cache (0 = unbounded).
	CacheCapacity int
	// CacheThreshold is the semantic-hit similarity bound. Defaults to 0.97.
	CacheThreshold float64
	// DisableCache turns the cache off (for ablations).
	DisableCache bool

	// MaxConcurrent caps requests served at once; 0 disables the limiter.
	MaxConcurrent int
	// MaxQueue bounds callers waiting for a slot when MaxConcurrent is hit;
	// beyond it requests are shed with resilience.ErrOverloaded.
	MaxQueue int
	// DisableBreaker turns off the per-model circuit breakers the cascade
	// consults.
	DisableBreaker bool

	// Scheduler, when non-nil, places a micro-batching
	// scheduler between the cascade and every model that supports
	// batched generation (llm.BatchModel): concurrent cascades then
	// share batches per tier instead of calling models one request at a
	// time. Models without batch support keep their direct path. The
	// zero sched.Config value selects the scheduler's defaults. Call
	// Close to drain it.
	Scheduler *sched.Config

	// Obs, Tracer and Log are the proxy's telemetry sinks, and the ones
	// it hands to every layer it builds: the Obs and Log fields inside the
	// Scheduler sub-config above are overwritten with them.
	//
	// Obs receives the metrics (and is what GET /metrics serves).
	Obs *obs.Registry
	// Tracer retains recent request traces (served by GET /debug/traces).
	// Nil builds a ring of the proxy's own.
	Tracer *obs.Tracer
	// Log emits the serving stack's lifecycle events; its sink is what
	// GET /debug/events serves. Nil builds a logger at Debug level over a
	// ring of the proxy's own, counting into Obs.
	Log *obs.Logger
	// DisableSLO turns off the per-class latency/availability tracking
	// served at GET /v1/slo.
	DisableSLO bool
	// TenantCapacity is how many tenants get a row of their own in the
	// attribution table served at GET /v1/tenants (0 selects
	// obs.DefaultTenantCapacity); every later tenant shares the
	// obs.OverflowTenant row.
	// DisableTenants turns attribution off.
	TenantCapacity int
	DisableTenants bool
	// DisableAlerts turns off the alert engine served at GET /v1/alerts
	// (the proxy's five rules, in alerts.go).
	DisableAlerts bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// proxy's HTTP mux. Off by default: profiling endpoints can stall the
	// world and belong behind an operator's explicit choice.
	EnablePprof bool
}

// Proxy is the serving front end. Proxy is safe for concurrent use.
type Proxy struct {
	casc     *cascade.Cascade
	cache    *semcache.Cache
	reg      *obs.Registry
	tracer   *obs.Tracer
	log      *obs.Logger
	slo      *obs.SLOTracker
	tenants  *obs.TenantAccountant
	alerts   *obs.AlertEngine
	pprof    bool
	limiter  *resilience.Limiter
	breakers *resilience.BreakerSet
	sched    *sched.Scheduler

	// keep is the head-sampling budget: the trace ring's capacity in kept
	// traces a second.
	keep *obs.Budget

	// now is the proxy's one clock: a request's start, time to first
	// token and elapsed time, the breakers, the SLO tracker, the alert
	// engine and keep all read it.
	now func() time.Time

	// mu guards only the in-flight table; stats are atomics and the cache
	// locks itself.
	mu       sync.Mutex
	inflight map[callKey]*call

	requests, cacheHits, coalesced, modelCalls, shed, spend, streams atomic.Int64

	// Metric handles, resolved once at construction.
	series    map[string]sourceSeries
	mSpend    *obs.Counter
	gInflight *obs.Gauge
	// obs_traces_total{decision}: how each request's trace was decided.
	mKept, mPromoted, mUnkept *obs.Counter
}

// sources is the closed set of terminal outcomes a request can have; it
// labels the per-source series below.
var sources = []string{"cache", "coalesced", "cascade", "error", "canceled", "shed"}

// sourceSeries are the per-outcome metric handles.
type sourceSeries struct {
	// label is the outcome boxed once, so the span attribute and the
	// terminal event of every request do not each allocate it.
	label interface{}
	// requests is proxy_requests_total{source} ("canceled" shares the
	// "error" counter).
	requests *obs.Counter
	// latency is proxy_latency_seconds{source}, nil for outcomes that
	// serve no answer.
	latency *obs.Histogram
	// The proxy_stream_* histograms, fed only by clients that asked for
	// a stream. How many streams ended each way is duration's count.
	duration, ttft *obs.Histogram
	// promote: an unkept request that ends this way has its trace
	// published anyway.
	promote bool
}

// New builds a Proxy on the wall clock.
func New(cfg Config) *Proxy { return newProxy(cfg, time.Now) }

// newProxy builds a Proxy whose every time decision reads now.
func newProxy(cfg Config, now func() time.Time) *Proxy {
	models := cfg.Models
	if len(models) == 0 {
		models = llm.DefaultFamily().Models()
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = cascade.DefaultTau
	}
	// The rings not given are the proxy's own: two proxies in one process
	// do not share /debug/traces or /debug/events.
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(0)
	}
	if cfg.Log == nil {
		cfg.Log = obs.NewLogger(obs.NewEventLog(0), obs.Debug, cfg.Obs)
	}
	reg, log := cfg.Obs, cfg.Log
	var breakers *resilience.BreakerSet
	if !cfg.DisableBreaker {
		breakers = resilience.NewBreakerSet(resilience.BreakerConfig{Now: now, Obs: reg, Log: log})
	}
	var scheduler *sched.Scheduler
	if cfg.Scheduler != nil {
		scfg := *cfg.Scheduler
		scfg.Obs, scfg.Log = reg, log
		var batchables []llm.BatchModel
		for _, m := range models {
			if bm, ok := m.(llm.BatchModel); ok {
				batchables = append(batchables, bm)
			}
		}
		if len(batchables) > 0 {
			scheduler = sched.New(scfg, batchables...)
		}
	}
	if cfg.ExitThreshold == 0 && !cfg.DisableEarlyExit {
		cfg.ExitThreshold = 0.35
	}
	exit := cfg.ExitThreshold
	if cfg.DisableEarlyExit {
		exit = 0
	}
	casc := &cascade.Cascade{Models: models, Decide: cascade.Threshold{Tau: cfg.Threshold}, Breakers: breakers, Sched: scheduler, ExitThreshold: exit, Obs: reg, Log: log}
	var slo *obs.SLOTracker
	if !cfg.DisableSLO {
		slo = obs.NewSLOTracker(obs.SLOConfig{Now: now, Obs: reg})
	}
	var tenants *obs.TenantAccountant
	if !cfg.DisableTenants {
		tenants = obs.NewTenantAccountant(obs.TenantConfig{Capacity: cfg.TenantCapacity, Obs: reg})
	}
	p := &Proxy{
		casc:     casc,
		sched:    scheduler,
		reg:      reg,
		tracer:   cfg.Tracer,
		log:      log,
		slo:      slo,
		tenants:  tenants,
		keep:     obs.NewBudget(cfg.Tracer.Cap(), now()),
		now:      now,
		pprof:    cfg.EnablePprof,
		breakers: breakers,
		inflight: make(map[callKey]*call),

		series:    make(map[string]sourceSeries, len(sources)),
		mSpend:    reg.Counter("proxy_spend_microusd_total"),
		gInflight: reg.Gauge("proxy_inflight"),
		mKept:     reg.Counter("obs_traces_total", "decision", "kept"),
		mPromoted: reg.Counter("obs_traces_total", "decision", "promoted"),
		mUnkept:   reg.Counter("obs_traces_total", "decision", "unkept"),
	}
	for _, src := range sources {
		requestsSrc := src
		if src == "canceled" {
			// proxy_requests_total has no such label value: a client that
			// stopped listening counts as an error there.
			requestsSrc = "error"
		}
		m := sourceSeries{
			label:    src,
			requests: reg.Counter("proxy_requests_total", "source", requestsSrc),
			duration: reg.Histogram("proxy_stream_duration_seconds", obs.LatencyBuckets, "source", src),
			ttft:     reg.Histogram("proxy_stream_ttft_seconds", obs.LatencyBuckets, "source", src),
		}
		switch src {
		case "cache", "coalesced", "cascade":
			m.latency = reg.Histogram("proxy_latency_seconds", obs.LatencyBuckets, "source", src)
		}
		m.promote = src == "error" || src == "shed"
		p.series[src] = m
	}
	if cfg.MaxConcurrent > 0 {
		p.limiter = resilience.NewLimiter(resilience.LimiterConfig{
			MaxConcurrent: cfg.MaxConcurrent,
			MaxQueue:      cfg.MaxQueue,
			Obs:           reg,
			Log:           log,
		})
	}
	if !cfg.DisableCache {
		th := cfg.CacheThreshold
		if th == 0 {
			th = 0.97
		}
		p.cache = semcache.New(semcache.Config{
			Embedder:  embed.New(embed.DefaultDim),
			Capacity:  cfg.CacheCapacity,
			Threshold: th,
			Policy:    semcache.Weighted,
			Obs:       reg,
			Log:       log,
		})
	}
	if !cfg.DisableAlerts {
		p.alerts = obs.NewAlertEngine(obs.AlertConfig{Obs: reg, Log: log, Now: now})
		p.addAlertRules()
	}
	return p
}

// Stats returns a snapshot of the counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Requests:   p.requests.Load(),
		CacheHits:  p.cacheHits.Load(),
		Coalesced:  p.coalesced.Load(),
		ModelCalls: p.modelCalls.Load(),
		Shed:       p.shed.Load(),
		Spend:      token.Cost(p.spend.Load()),
		Streams:    p.streams.Load(),
	}
}

// Tracer returns the proxy's trace ring (what GET /debug/traces serves).
func (p *Proxy) Tracer() *obs.Tracer { return p.tracer }

// Events returns the proxy's event ring (what GET /debug/events serves).
func (p *Proxy) Events() *obs.EventLog { return p.log.Sink() }

// Tenants returns the proxy's per-tenant accountant (what GET
// /v1/tenants serves), or nil when disabled.
func (p *Proxy) Tenants() *obs.TenantAccountant { return p.tenants }

// Alerts returns the proxy's alert engine (what GET /v1/alerts
// serves), or nil when disabled.
func (p *Proxy) Alerts() *obs.AlertEngine { return p.alerts }

// SchedStats snapshots the batching scheduler's counters; ok is false
// when no scheduler is configured.
func (p *Proxy) SchedStats() (st sched.Stats, ok bool) {
	if p.sched == nil {
		return sched.Stats{}, false
	}
	return p.sched.Stats(), true
}

// Close drains and stops the batching scheduler (if any). Queued
// requests are flushed before it returns; the proxy itself keeps
// serving, falling back to direct model calls.
func (p *Proxy) Close() {
	if p.sched != nil {
		p.sched.Close()
	}
}

// BreakerStates snapshots the per-model circuit breaker states (nil when
// breakers are disabled).
func (p *Proxy) BreakerStates() map[string]resilience.State {
	if p.breakers == nil {
		return nil
	}
	return p.breakers.States()
}

// Complete serves one request through limiter → cache → coalescing →
// cascade: it opens the request and drains its chunk stream. The returned
// Answer carries the trace ID even on errors (shed requests leave a trace
// and an event trail too). The request keeps the priority class its
// context carries, so its upstream tiers go through the batching
// scheduler.
func (p *Proxy) Complete(ctx context.Context, req llm.Request) (Answer, error) {
	s, ans, err := p.open(ctx, req, false)
	if s == nil {
		return ans, err
	}
	for {
		if _, err := s.Recv(); err != nil {
			// io.EOF or the terminal error — Answer reports which.
			return s.Answer()
		}
	}
}

// CompleteStream serves one request through the same pipeline as
// Complete, handing the caller the chunk stream instead of draining it.
// The caller must drain or Close the returned stream; the limiter slot is
// held until it does. Streamed requests run in the sched.Streaming
// priority class: their upstream calls bypass micro-batching and
// token-stream (with mid-generation early exit when configured), and
// their SLO/admission records carry the "streaming" class.
func (p *Proxy) CompleteStream(ctx context.Context, req llm.Request) (Stream, error) {
	s, err := p.openStream(ctx, req)
	if s == nil {
		// Shed at admission; a nil *clientStream must not become a non-nil
		// Stream.
		return nil, err
	}
	return s, nil
}

// openStream is CompleteStream handing out the concrete reader, which the
// SSE handler polls for what is ready; nil when the request was shed.
func (p *Proxy) openStream(ctx context.Context, req llm.Request) (*clientStream, error) {
	s, _, err := p.open(sched.WithClass(ctx, sched.Streaming), req, true)
	return s, err
}

// request is the one record of a client request. open resolves the first
// group of fields once; the second group is written where each fact is
// decided — by open for the requests it settles itself, by the client's
// reader (stream.go) for the rest; finish turns the record into every
// signal the request leaves behind. Read mode is a field of it, not a
// second way of keeping it.
type request struct {
	ctx   context.Context
	root  *obs.Span
	start time.Time
	// streamed is the read mode: the client asked for the chunk stream
	// instead of the drained answer.
	streamed bool
	// class is the scheduling class, which keys the SLO record; tenant is
	// the one tagged on the context, "" when there is none (accounted to
	// obs.DefaultTenant).
	class, tenant string
	// limited: the request holds a limiter slot until it finishes.
	limited bool

	// source is how the client is being served — "cache", "cascade" (it
	// leads the in-flight call) or "coalesced" (it follows one) — and
	// outcome how that ended, one of sources.
	source, outcome string
	// steps is how many tiers the run this client led attempted.
	steps int
	// chunks counts the chunks delivered to the client, tier is the last
	// one's cascade tier, and ttft is when the first reached a client
	// that asked for a stream.
	chunks, tier int
	ttft         time.Duration
	ans          Answer
	err          error
}

// mode names the read mode for events and spans (constants, so boxing
// them allocates nothing).
func (rq *request) mode() interface{} {
	if rq.streamed {
		return "stream"
	}
	return "complete"
}

// open is the pipeline's front half, shared by both read modes:
// admission → cache lookup → join or lead the in-flight call for the
// prompt. A request that never gets past admission and a
// request/response cache hit are settled right here, on a record that
// never leaves the stack, before any call, log or reader exists, and
// come back as a finished (Answer, error) with a nil stream. Everything
// else comes back as the client's reader — over the call's chunk log, or
// pre-settled with the one cached chunk.
func (p *Proxy) open(ctx context.Context, req llm.Request, streamed bool) (*clientStream, Answer, error) {
	rq := request{start: p.now(), streamed: streamed, class: sched.ClassFrom(ctx).String()}
	rq.tenant, _ = obs.ExplicitTenant(ctx)
	p.requests.Add(1)
	if streamed {
		p.streams.Add(1)
	}
	// The root span starts before admission so even shed requests leave a
	// trace. Whether it records is decided here, once for every layer.
	rq.ctx, rq.root = p.tracer.StartSampled(ctx, "proxy.complete", p.keep.Admit(rq.start))
	ctx = rq.ctx

	// 0. Admission: shed rather than queue without bound.
	if p.limiter != nil {
		if err := p.limiter.Acquire(ctx); err != nil {
			// The queue was full, or the caller's context died while it
			// waited in it — the same outcome as one dying on the chunk log.
			rq.outcome, rq.err = "canceled", err
			if errors.Is(err, resilience.ErrOverloaded) {
				p.shed.Add(1)
				rq.outcome, rq.ans.Source = "shed", "error"
			}
			p.finish(&rq)
			return nil, rq.ans, err
		}
		rq.limited = true
	}
	// Attributes that box are built only for an event or span that records.
	if p.log.Enabled(ctx, obs.Debug) {
		p.log.Event(ctx, obs.Debug, "proxy_admit", "class", rq.class, "mode", rq.mode())
	}

	// 1. Cache. The lookup embeds the query — deliberately outside every
	// proxy lock. A miss keeps that embedding for the fill: the leader's
	// pump indexes the answer's row from it, everyone else releases it.
	var kept *embed.Vector
	if p.cache != nil {
		_, csp := obs.StartSpan(ctx, "cache.lookup")
		hit, ok, qv := p.cache.LookupKeep(req.Prompt, obs.SampledTraceID(ctx))
		kept = qv
		if csp != nil {
			csp.SetAttr("hit", ok)
			if ok {
				csp.SetAttr("similarity", hit.Similarity)
				csp.SetAttr("exact", hit.Exact)
				csp.SetAttr("memo", hit.Memo)
			}
			csp.End()
		}
		if ok {
			p.cacheHits.Add(1)
			if p.log.Enabled(ctx, obs.Info) {
				p.log.Event(ctx, obs.Info, "proxy_cache_hit", "similarity", hit.Similarity, "exact", hit.Exact)
			}
			ans := Answer{Text: hit.Entry.Response, Model: "cache", Confidence: 1, Source: "cache"}
			if !streamed {
				// The one cached chunk, handed over without building it.
				rq.outcome, rq.ans, rq.chunks = "cache", ans, 1
				p.finish(&rq)
				return nil, rq.ans, nil
			}
			// A cache hit streams instantly: one pre-paid chunk, no log.
			s := p.newClientStream(rq, nil, "cache")
			s.settled, s.ans = true, ans
			s.pending = &Chunk{Text: ans.Text, Model: "cache", Confidence: 1, Final: true}
			return s, Answer{}, nil
		}
		p.log.Event(ctx, obs.Debug, "proxy_cache_miss")
	}

	// 2. In-flight dedup: join an identical pending call, or lead a new
	// one. Either way the client becomes a reader of the call's log.
	key := keyOf(req)
	p.mu.Lock()
	c, joined := p.inflight[key]
	if !joined {
		c = new(call)
		if !streamed {
			// One pre-billed chunk per attempted tier: the log never
			// regrows. A token-streamed log grows as it goes.
			c.chunks = make([]Chunk, 0, len(p.casc.Models))
		}
		p.inflight[key] = c
		p.gInflight.Add(1)
	}
	p.mu.Unlock()
	if joined {
		p.cache.Release(kept)
		p.coalesced.Add(1)
		p.log.Event(ctx, obs.Info, "proxy_coalesce_join")
		s := p.newClientStream(rq, c, "coalesced")
		_, s.wait = obs.StartSpan(ctx, "coalesce.wait")
		return s, Answer{}, nil
	}
	p.pump(ctx, req, key, c, kept)
	return p.newClientStream(rq, c, "cascade"), Answer{}, nil
}

// callKey is a call's identity in the in-flight table: every field of
// the request that shapes its answer, so a follower joins only a run
// that answers exactly what it asked. The cache still keys by prompt.
type callKey struct {
	task                                  llm.Task
	prompt, gold, wrong, wrongAlts, noise string
	// difficulty is the float's bits: a NaN key would never match, and
	// its entry could never be deleted.
	difficulty uint64
}

// keyOf builds req's call key. The wrong alternatives are joined with
// each one's length ahead of it, so no two lists share a key.
func keyOf(req llm.Request) callKey {
	k := callKey{task: req.Task, prompt: req.Prompt, gold: req.Gold, wrong: req.Wrong,
		noise: req.NoiseKey, difficulty: math.Float64bits(req.Difficulty)}
	if len(req.WrongAlts) > 0 {
		var b []byte
		for _, alt := range req.WrongAlts {
			b = strconv.AppendInt(b, int64(len(alt)), 10)
			b = append(b, ':')
			b = append(b, alt...)
		}
		k.wrongAlts = string(b)
	}
	return k
}

// pump starts a call's upstream: the cascade run, detached from the
// leader's context — the leader merely reads the log like any coalesced
// follower, so a canceled leader never fails the cohort — and bounded by
// the proxy's own deadline instead. Values (trace, tenant, priority
// class) survive WithoutCancel, so the cascade's per-step spans land
// under the leader's trace and its tiers open the way the leader's class
// asks. Every delivered chunk is appended to the call's log; spend is
// accounted exactly once, when the run ends. Then, in this order: the
// answer is published to the cache (an exact repeat hits from here on),
// the in-flight entry is deleted, the clients are answered, and only then
// is the answer's row indexed from kept, the leader's lookup embedding —
// so no client waits on the index's write lock. kept is released on every
// path. The ending is deferred, so a tier that panics still ends its call:
// its spend is accounted, its clients get errUpstreamPanic and a later
// identical request leads a fresh run; obs.Go then counts the panic.
func (p *Proxy) pump(ctx context.Context, req llm.Request, key callKey, c *call, kept *embed.Vector) {
	upCtx, cancelUp := context.WithTimeout(context.WithoutCancel(ctx), upstreamDeadline)
	obs.Go(p.reg, "proxy_upstream", func() {
		defer cancelUp()
		var (
			rs    *cascade.RunStream
			resp  llm.Response
			trace cascade.Trace
			err   error
			ended bool // the run returned rather than panicked
		)
		defer func() {
			if !ended {
				// Defers unwind last in, first out: rs is closed already, so
				// Result holds the trace of what the run billed.
				err = errUpstreamPanic
				if rs != nil {
					_, trace, _ = rs.Result()
				}
			}
			// Accounting happens here — success or not — because a failed,
			// timed-out or early-exited run already paid for every chunk it
			// emitted; dropping that spend would understate cost under
			// failure injection. Per-tenant attribution rides the same
			// once-per-run spot, so the sum across tenants stays meter-exact
			// with the spend counter: coalesced followers pay 0 and the
			// leader's tenant pays the run.
			p.modelCalls.Add(int64(len(trace.Steps)))
			p.spend.Add(int64(trace.TotalCost))
			p.mSpend.Add(int64(trace.TotalCost))
			p.tenants.AddSpend(obs.TenantFrom(upCtx), int64(trace.TotalCost), trace.Escalations())
			// A failed run's answer is error-shaped, not success-shaped: no
			// model, no text — just the money already burned.
			ans := Answer{Source: "error", Cost: trace.TotalCost}
			var fill semcache.Fill
			if err == nil {
				ans = Answer{Text: resp.Text, Model: resp.Model, Confidence: resp.Confidence, Source: "cascade", Cost: trace.TotalCost}
				if p.cache != nil {
					fill = p.cache.Publish(req.Prompt, resp.Text, semcache.Original, semcache.Reuse)
				}
			} else {
				p.log.Event(upCtx, obs.Warn, "proxy_upstream_error", "error", err.Error(), "steps", len(trace.Steps))
			}
			p.mu.Lock()
			delete(p.inflight, key)
			p.gInflight.Add(-1)
			p.mu.Unlock()
			c.finish(ans, err, len(trace.Steps))
			if p.cache != nil {
				// A failed run or a re-put left an empty fill: this only
				// releases kept.
				p.cache.Index(fill, kept)
			}
		}()
		rs, err = p.casc.CompleteStream(upCtx, req)
		if err == nil {
			// Idempotent; the run normally settles via Result below, but a
			// panic in the chunk loop must not leave the tier stream open.
			defer rs.Close()
			for {
				sc, rerr := rs.Recv()
				if rerr != nil {
					// io.EOF or the terminal error — both are surfaced
					// (with the trace) by Result below.
					break
				}
				c.append(Chunk{
					Text:       sc.Text,
					Model:      sc.Model,
					Tier:       sc.Tier,
					Confidence: sc.Confidence,
					Cost:       sc.Cost,
					Restart:    sc.Restart,
					Final:      sc.Final,
				})
			}
			resp, trace, err = rs.Result()
		}
		ended = true
	})
}

// finish is the once-per-request terminal bookkeeping, and the only
// reader of the record: limiter release, the per-source counter and
// histograms, the SLO and tenant samples, every root-span attribute and
// the terminal event all derive from rq here, the same way for either
// read mode — which only decides whether the proxy_stream_* histograms
// are fed. The terminal event is named by how the request ended:
// proxy_complete, proxy_cancel (the client stopped listening) or
// proxy_error. finish also completes rq.ans with what only it measures:
// the trace ID — set even on errors so failures stay explainable — the
// elapsed time and the delivery counts.
//
// finish also completes the head-sampling decision. A request open did
// not keep is promoted when it ended in error or was shed, or missed its
// class's latency target: a fresh root with its
// trace ID takes the attributes and the terminal event, with no children.
// Any other unkept request leaves its metrics, SLO and tenant records
// only, and no exemplar: every exemplar names a trace the ring was given.
func (p *Proxy) finish(rq *request) {
	ctx, root, traceID := rq.ctx, rq.root, rq.root.TraceID()
	if rq.limited {
		p.limiter.Release()
	}
	elapsed := p.now().Sub(rq.start)
	rq.ans.Trace, rq.ans.Elapsed, rq.ans.Chunks, rq.ans.Tier = traceID, elapsed, rq.chunks, rq.tier
	m := p.series[rq.outcome]
	m.requests.Inc()
	slow := p.slo.Record(rq.class, elapsed, rq.err == nil)
	p.tenants.Record(rq.tenant, obs.TenantSample{
		Latency:  elapsed,
		CacheHit: rq.outcome == "cache",
		Shed:     rq.outcome == "shed",
		Error:    rq.err != nil,
	})
	decision := p.mKept
	if root.Unkept() {
		decision = p.mUnkept
		if m.promote || slow {
			root, decision = p.tracer.Promote(root), p.mPromoted
			ctx = obs.ContextWithSpan(ctx, root)
		}
	}
	decision.Inc()
	exemplar := traceID
	if root.Unkept() {
		exemplar = ""
	}
	if m.latency != nil {
		m.latency.ObserveWithExemplar(elapsed.Seconds(), exemplar)
	}
	if rq.streamed {
		m.duration.ObserveWithExemplar(elapsed.Seconds(), exemplar)
		if rq.chunks > 0 {
			p.series[rq.source].ttft.ObserveWithExemplar(rq.ttft.Seconds(), exemplar)
		}
	}
	if root.Unkept() {
		return
	}
	mode := rq.mode()
	root.SetAttr("mode", mode)
	root.SetAttr("source", m.label)
	root.SetAttr("chunks", rq.chunks)
	if rq.tenant != "" {
		root.SetAttr("tenant", rq.tenant)
	}
	if rq.outcome == "cascade" {
		// The client led the run it was answered from.
		root.SetAttr("model", rq.ans.Model)
		root.SetAttr("steps", rq.steps)
		root.SetAttr("cost_microusd", int64(rq.ans.Cost))
	}
	if rq.err != nil {
		root.SetAttr("error", rq.err.Error())
	}
	// Event names are constants at the call (metricname): one call each.
	switch {
	case rq.err == nil:
		p.log.Event(ctx, obs.Info, "proxy_complete", "mode", mode, "source", m.label,
			"model", rq.ans.Model, "cost_microusd", int64(rq.ans.Cost), "chunks", rq.chunks, "elapsed", elapsed)
	case rq.outcome == "canceled":
		p.log.Event(ctx, obs.Info, "proxy_cancel", "mode", mode, "source", m.label,
			"chunks", rq.chunks, "elapsed", elapsed)
	default:
		p.log.Event(ctx, obs.Error, "proxy_error", "mode", mode, "source", m.label,
			"error", rq.err.Error(), "chunks", rq.chunks, "elapsed", elapsed)
	}
	root.End()
}

// Package sched implements the micro-batching request scheduler that
// sits between the serving path (proxy → cascade) and the model family.
// It is the batching/admission layer of a heavy-traffic LLM deployment:
//
//   - Per-tier batch queues. Each model tier has its own dispatcher and
//     pair of priority queues; requests submitted for a tier are grouped
//     into batches and fed through llm.BatchModel.GenerateBatch, whose
//     latency is sub-linear in the batch size. At high concurrency this
//     multiplies the requests/sec a tier sustains (see bench_test.go and
//     `make bench-sched`).
//
//   - Natural batching. The dispatcher never waits for cohort-mates: it
//     takes the first queued request, drains whatever else is already
//     queued up to MaxBatch, and flushes at once. A tier runs one batch at
//     a time, so requests that arrive while a batch is in flight queue
//     behind it and ride the next one: batches grow with load, and an idle
//     tier adds no wait.
//
//   - Priority classes with weighted-fair dequeueing. Interactive traffic
//     (default) and bulk batch/experiment traffic are queued separately
//     and drained by a credit-based weighted round robin (default 4:1),
//     so a sustained bulk backlog cannot starve interactive requests, and
//     bulk work still gets its weighted share instead of being starved
//     behind strict priority. A third class, Streaming, has no queue at
//     all: token-stream traffic bypasses batching entirely (see Class).
//
// Every signal — submissions, queue depth, queue wait, batch size, flush
// cause — is metered into an obs.Registry, and the proxy surfaces them at
// /metrics and /v1/stats.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
)

// Class is a request priority class.
type Class int

const (
	// Interactive is latency-sensitive user traffic — the default class.
	Interactive Class = iota
	// Batch is bulk throughput traffic (experiment runs, backfills); it is
	// dequeued at a lower weighted share and must never starve Interactive.
	Batch
	// Streaming is token-stream traffic. A stream's time-to-first-token is
	// exactly the queueing delay batching would add, and a batched cohort
	// cannot be aborted early for one member — so Streaming submissions
	// bypass the batch queues entirely and go straight to the model.
	Streaming

	// numQueueClasses counts the classes with batch queues; Streaming has
	// none — it never enqueues.
	numQueueClasses = 2
)

// String returns the wire name of the class.
func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Streaming:
		return "streaming"
	}
	return "interactive"
}

// ParseClass maps the wire names ("interactive", "batch", "streaming";
// "" means interactive) to a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	case "streaming":
		return Streaming, nil
	}
	return Interactive, fmt.Errorf("sched: unknown priority class %q", s)
}

type classKey struct{}

// WithClass tags ctx with a priority class. The scheduler reads it back
// with ClassFrom at Submit time, so the class set at the front door (HTTP
// handler, experiment harness) travels through the cascade unchanged —
// including across the proxy's detached upstream context, since values
// survive context.WithoutCancel.
func WithClass(ctx context.Context, c Class) context.Context {
	return context.WithValue(ctx, classKey{}, c)
}

// ClassFrom returns the class tagged on ctx, defaulting to Interactive.
func ClassFrom(ctx context.Context) Class {
	if c, ok := ctx.Value(classKey{}).(Class); ok {
		return c
	}
	return Interactive
}

// Errors returned by Submit.
var (
	// ErrClosed is returned for submissions after Close.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrUnknownModel is returned, unwrapped, when the named tier is not
	// registered: the caller calls the model directly.
	ErrUnknownModel = errors.New("sched: model not registered")
)

// DefaultMaxBatch is the most queued requests one flush takes when
// Config.MaxBatch is zero.
const DefaultMaxBatch = 16

// Fixed scheduler parameters (see Config).
const (
	// queueDepth bounds each (tier, class) queue; submitters block (with
	// context cancellation) when their queue is full, providing
	// backpressure.
	queueDepth = 1024
	// batchTimeout bounds one batched upstream call. The batch runs
	// detached from every submitter's context (a canceled submitter must
	// not fail its cohort), so this deadline is what reaps a hung batch;
	// a submitter stops waiting when its own context ends, either way.
	batchTimeout = 30 * time.Second
	// interactiveWeight and batchWeight set the weighted-fair dequeue
	// ratio between the classes when both are backlogged.
	interactiveWeight, batchWeight = 4, 1
)

// Config parameterizes a Scheduler. The zero value selects the defaults
// documented per field. The queue depth, the batch timeout and the class
// weights are not fields: no caller ever changed them, so they are the
// constants queueDepth, batchTimeout, interactiveWeight and batchWeight.
type Config struct {
	// MaxBatch caps how many queued requests one flush takes. Defaults to
	// DefaultMaxBatch.
	MaxBatch int
	// Obs receives the scheduler's metrics.
	Obs *obs.Registry
	// Log receives sched_batch_flush lifecycle events.
	Log *obs.Logger
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	return cfg
}

// item is one queued request awaiting its batch.
type item struct {
	ctx   context.Context
	req   llm.Request
	class Class
	enq   time.Time
	out   chan result // buffered 1; written exactly once
}

type result struct {
	resp llm.Response
	err  error
}

// tier is one model's queues and dispatcher state. The credits and the
// batch buffer are touched only by the tier's dispatcher goroutine.
type tier struct {
	model  llm.BatchModel
	queues [numQueueClasses]chan *item

	// credits is the weighted-round-robin state: refilled to the class
	// weights whenever no class can spend (empty queue or spent credit).
	credits [numQueueClasses]int

	gDepth                    [numQueueClasses]*obs.Gauge
	hBatch                    *obs.Histogram
	mFlushSize, mFlushDrained *obs.Counter
}

// BatchSizeBuckets are the histogram buckets for flushed batch sizes.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// Scheduler groups submitted requests into per-tier micro-batches.
// Scheduler is safe for concurrent use.
type Scheduler struct {
	cfg   Config
	tiers map[string]*tier

	// mu gates Submit against Close: no item can be enqueued after the
	// closed flag is set, so the dispatchers' final drain observes every
	// queued item.
	mu     sync.RWMutex
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup

	submitted, batches, batchedItems, canceled, failed, bypassed atomic.Int64

	mSubmitted [numQueueClasses]*obs.Counter
	hWait      [numQueueClasses]*obs.Histogram
	mCanceled  *obs.Counter
	mFailed    *obs.Counter
	mBypass    *obs.Counter
}

// New builds a Scheduler over the given model tiers and starts one
// dispatcher goroutine per tier. Close must be called to stop them.
func New(cfg Config, models ...llm.BatchModel) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:       cfg,
		tiers:     make(map[string]*tier, len(models)),
		stop:      make(chan struct{}),
		mCanceled: cfg.Obs.Counter("sched_canceled_total"),
		mFailed:   cfg.Obs.Counter("sched_batch_errors_total"),
		mBypass:   cfg.Obs.Counter("sched_stream_bypass_total"),
	}
	for c := Class(0); c < numQueueClasses; c++ {
		s.mSubmitted[c] = cfg.Obs.Counter("sched_submitted_total", "class", c.String())
		s.hWait[c] = cfg.Obs.Histogram("sched_queue_wait_seconds", obs.LatencyBuckets, "class", c.String())
	}
	for _, m := range models {
		if _, dup := s.tiers[m.Name()]; dup {
			continue
		}
		t := &tier{
			model:         m,
			hBatch:        cfg.Obs.Histogram("sched_batch_size", BatchSizeBuckets, "model", m.Name()),
			mFlushSize:    cfg.Obs.Counter("sched_flushes_total", "model", m.Name(), "cause", "size"),
			mFlushDrained: cfg.Obs.Counter("sched_flushes_total", "model", m.Name(), "cause", "drained"),
		}
		for c := Class(0); c < numQueueClasses; c++ {
			t.queues[c] = make(chan *item, queueDepth)
			t.gDepth[c] = cfg.Obs.Gauge("sched_queue_depth", "model", m.Name(), "class", c.String())
		}
		s.tiers[m.Name()] = t
		s.wg.Add(1)
		obs.Go(cfg.Obs, "sched_run", func() { s.run(t) })
	}
	return s
}

// Submit queues one request for the named tier and blocks until its batch
// completes. The priority class is read from ctx (see WithClass). A
// submitter whose context dies while queued or waiting stops waiting, but
// its batch still runs for the rest of the cohort.
func (s *Scheduler) Submit(ctx context.Context, model string, req llm.Request) (llm.Response, error) {
	t, ok := s.tiers[model]
	if !ok {
		return llm.Response{}, ErrUnknownModel
	}
	if req.Prompt == "" {
		return llm.Response{}, llm.ErrEmptyPrompt
	}
	class := ClassFrom(ctx)
	if class == Streaming {
		// Streaming traffic never queues: batching's cohort wait is pure
		// time-to-first-token loss, and a shared batch cannot be aborted
		// when one stream early-exits. Go straight to the model. The
		// closed-gate check still applies so serving paths degrade to
		// their own direct call after Close.
		s.mu.RLock()
		closed := s.closed
		s.mu.RUnlock()
		if closed {
			return llm.Response{}, ErrClosed
		}
		_, sp := obs.StartSpan(ctx, "sched.bypass")
		if sp != nil { // nil under an unkept trace: box nothing
			sp.SetAttr("model", model)
			sp.SetAttr("class", class.String())
			defer sp.End()
		}
		s.bypassed.Add(1)
		s.mBypass.Inc()
		return t.model.Complete(ctx, req)
	}
	it := &item{ctx: ctx, req: req, class: class, enq: time.Now(), out: make(chan result, 1)}

	_, sp := obs.StartSpan(ctx, "sched.submit")
	if sp != nil { // nil under an unkept trace: box nothing
		sp.SetAttr("model", model)
		sp.SetAttr("class", class.String())
		defer sp.End()
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return llm.Response{}, ErrClosed
	}
	// The enqueue happens under the read lock so Close (write lock) cannot
	// interleave: every enqueued item is visible to the final drain. The
	// send can park when the queue is full — that backpressure under the
	// close-gate RLock is deliberate (Close's write lock waits out the
	// enqueue, never a batch), so both comm ops carry lockscope waivers.
	select {
	case t.queues[class] <- it: //llmdm:allow lockscope bounded enqueue under the close gate is the design
		s.submitted.Add(1)
		s.mSubmitted[class].Inc()
		t.gDepth[class].Add(1)
		s.mu.RUnlock()
	case <-ctx.Done(): //llmdm:allow lockscope cancellation arm of the gated enqueue
		s.mu.RUnlock()
		sp.SetAttr("outcome", "canceled")
		return llm.Response{}, ctx.Err()
	}

	select {
	case r := <-it.out:
		if r.err != nil {
			sp.SetAttr("outcome", "error")
		}
		return r.resp, r.err
	case <-ctx.Done():
		// The batch keeps running for the rest of the cohort; this caller
		// just stops waiting (its spend already accrued to the meters).
		sp.SetAttr("outcome", "canceled")
		return llm.Response{}, ctx.Err()
	}
}

// Stats is a snapshot of the scheduler's lifetime counters.
type Stats struct {
	// Submitted counts requests accepted by Submit.
	Submitted int64
	// Batches and BatchedItems count successful flushes and the items they
	// served; BatchedItems/Batches is the achieved mean batch size.
	Batches      int64
	BatchedItems int64
	// Canceled counts items dropped from a batch because their submitter's
	// context died while queued.
	Canceled int64
	// Failed counts batches whose upstream call errored.
	Failed int64
	// Bypassed counts Streaming-class submissions that skipped the batch
	// queues and went straight to the model.
	Bypassed int64
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Submitted:    s.submitted.Load(),
		Batches:      s.batches.Load(),
		BatchedItems: s.batchedItems.Load(),
		Canceled:     s.canceled.Load(),
		Failed:       s.failed.Load(),
		Bypassed:     s.bypassed.Load(),
	}
}

// Close stops accepting submissions, flushes everything already queued,
// and waits for the dispatchers to exit. Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// run is one tier's dispatcher loop: await the first item, take what is
// already queued behind it, flush, repeat.
func (s *Scheduler) run(t *tier) {
	defer s.wg.Done()
	for {
		first, ok := s.awaitFirst(t)
		if !ok {
			s.finalFlush(t)
			return
		}
		s.flush(t, s.fill(t, first))
	}
}

// awaitFirst blocks for the next item, draining any backlog fairly first.
// It returns false when the scheduler is closing.
func (s *Scheduler) awaitFirst(t *tier) (*item, bool) {
	if it := t.pickFair(); it != nil {
		return it, true
	}
	select {
	case it := <-t.queues[Interactive]:
		t.gDepth[Interactive].Add(-1)
		return it, true
	case it := <-t.queues[Batch]:
		t.gDepth[Batch].Add(-1)
		return it, true
	case <-s.stop:
		return nil, false
	}
}

// fill grows the batch from what is already queued, through the
// weighted-fair picker, up to MaxBatch, and never waits for more. The
// dispatcher runs one batch at a time, so arrivals during a flush queue
// behind it and the next fill takes them: batches grow with load while an
// idle tier dispatches a lone request at once.
func (s *Scheduler) fill(t *tier, first *item) []*item {
	batch := make([]*item, 1, s.cfg.MaxBatch)
	batch[0] = first
	for len(batch) < s.cfg.MaxBatch {
		it := t.pickFair()
		if it == nil {
			break
		}
		batch = append(batch, it)
	}
	return batch
}

// pickFair takes one backlogged item by credit-based weighted round
// robin: a class spends one credit per dequeue; when no class can spend
// (queue empty or credit exhausted), credits refill to the class
// weights. Under a two-class backlog the long-run dequeue ratio is
// interactiveWeight:batchWeight; when only one class has work it gets
// every slot (work conserving).
func (t *tier) pickFair() *item {
	for pass := 0; pass < 2; pass++ {
		if t.credits[Interactive] > 0 {
			if it := t.tryTake(Interactive); it != nil {
				return it
			}
		}
		if t.credits[Batch] > 0 {
			if it := t.tryTake(Batch); it != nil {
				return it
			}
		}
		t.credits[Interactive] = interactiveWeight
		t.credits[Batch] = batchWeight
	}
	return nil
}

func (t *tier) tryTake(c Class) *item {
	select {
	case it := <-t.queues[c]:
		t.gDepth[c].Add(-1)
		t.credits[c]--
		return it
	default:
		return nil
	}
}

// flush runs one batch through the tier's model and delivers the
// per-item results. Items whose submitter already gave up are dropped
// before the upstream call. The call itself is detached from every
// submitter's context and bounded by batchTimeout.
func (s *Scheduler) flush(t *tier, batch []*item) {
	now := time.Now()
	live := batch[:0]
	tenants := make(map[string]struct{})
	for _, it := range batch {
		// The wait exemplar ties a fat queue-wait bucket back to one
		// concrete request's trace; tenant fan-in is reported per flush.
		s.hWait[it.class].ObserveWithExemplar(now.Sub(it.enq).Seconds(), obs.SampledTraceID(it.ctx))
		tenants[obs.TenantFrom(it.ctx)] = struct{}{}
		if err := it.ctx.Err(); err != nil {
			s.canceled.Add(1)
			s.mCanceled.Inc()
			it.out <- result{err: err}
			continue
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}
	cause := "drained"
	if len(live) == s.cfg.MaxBatch {
		t.mFlushSize.Inc()
		cause = "size"
	} else {
		t.mFlushDrained.Inc()
	}
	// A flush serves many traces at once, so the event is uncorrelated;
	// "tenants" reports how many distinct tenants shared the batch.
	s.cfg.Log.Emit(obs.Debug, "sched_batch_flush",
		"model", t.model.Name(), "size", len(live), "dropped", len(batch)-len(live), "cause", cause, "tenants", len(tenants))
	reqs := make([]llm.Request, len(live))
	for i, it := range live {
		reqs[i] = it.req
	}
	// The flush deliberately detaches from every submitter's context: the
	// batch runs to completion for the whole cohort even when individual
	// callers cancel, bounded only by the scheduler's own batchTimeout.
	ctx, cancel := context.WithTimeout(context.Background(), batchTimeout) //llmdm:detached batch flush outlives any single submitter
	defer cancel()
	resps, err := t.model.GenerateBatch(ctx, reqs)
	if err == nil && len(resps) != len(live) {
		err = fmt.Errorf("sched: model %s returned %d responses for %d requests",
			t.model.Name(), len(resps), len(live))
	}
	if err != nil {
		s.failed.Add(1)
		s.mFailed.Inc()
		for _, it := range live {
			it.out <- result{err: err}
		}
		return
	}
	s.batches.Add(1)
	s.batchedItems.Add(int64(len(live)))
	t.hBatch.Observe(float64(len(live)))
	for i, it := range live {
		it.out <- result{resp: resps[i]}
	}
}

// finalFlush drains and serves everything still queued after Close.
func (s *Scheduler) finalFlush(t *tier) {
	for first := t.pickFair(); first != nil; first = t.pickFair() {
		s.flush(t, s.fill(t, first))
	}
}

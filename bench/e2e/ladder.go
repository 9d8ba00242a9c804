package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/cascade"
	"repro/internal/core/semcache"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/token"
	"repro/internal/vector"
)

const (
	// ladderN requests are replayed up the ladder; a multiple of every
	// workload's coldEvery, so each pass sees the cold trickle at the same
	// positions.
	ladderN = 2048
	// passShare of the measured window's length caps one pass (1.2 s at the
	// contract's 12 s): a pass over a 16384-row scan that runs long stops
	// early and reports the requests it reached.
	passShare = 0.1
	// microBatch calls are timed together for the nanosecond rungs, where
	// one clock read costs as much as the call.
	microBatch = 256
	microReps  = 41
)

// timing is one timed call; the zero value means the pass never reached it.
type timing struct{ start, end int64 }

func (t timing) ran() bool   { return t.end != 0 }
func (t timing) us() float64 { return float64(t.end-t.start) / 1e3 }

func timed(fn func()) timing {
	t := timing{start: nowNS()}
	fn()
	t.end = nowNS()
	return t
}

// medianUS is the median duration of the timings that ran, in µs, and how
// many ran.
func medianUS(ts []timing) (float64, int) {
	var xs []float64
	for _, t := range ts {
		if t.ran() {
			xs = append(xs, t.us())
		}
	}
	return median(xs), len(xs)
}

// microNS times fn in batches and returns the median cost of one call, ns.
func microNS(fn func(i int)) float64 {
	per := make([]float64, microReps)
	for r := range per {
		t0 := nowNS()
		for i := 0; i < microBatch; i++ {
			fn(r*microBatch + i)
		}
		per[r] = float64(nowNS()-t0) / microBatch
	}
	return median(per)
}

// ladder is the traced pass: the same generated requests sent up a ladder
// of rungs, each rung timing one layer's public entry point from outside,
// on harness-owned instances built the way proxy.New builds its own.
type ladder struct {
	ctx context.Context
	res *result
	st  *stack
	gen *generator
	sp  spec
	c   int
	// budget caps each pass.
	budget time.Duration
	// texts are the answers the prefill produced, for the harness caches.
	texts expectations

	reg *obs.Registry // the harness-owned instances' sink, not the proxy's
	log *obs.Logger

	reqs    []request // the replayed requests
	prompts []string
	llmReqs []llm.Request

	errMu sync.Mutex
	err   error // the first error any rung met

	// What the rungs measured, by position in reqs.
	replies                                 []reply
	httpT, proxyT                           []timing
	httpCached, proxyCached                 []bool // answered from the cache
	lookupC, lookup1, putC, put1            []timing
	hit, exact                              []bool
	evicting                                bool // puts run at capacity, so each evicts
	scratchT, textT, searchT, addT, removeT []timing
	cascT, firstChunk                       []timing
	ownLookupUS                             float64 // median of the proxy's own cache.lookup spans
	httpCalls, cascCalls                    map[string][]modelCall
}

// pass calls fn(worker, i) for each i in [0,n) where keep(i), from c
// goroutines, until the pass budget is spent; fn returns the timing of the
// call it made. Indices are handed out in order, so an early stop leaves a
// prefix.
func (l *ladder) pass(n, c int, keep func(i int) bool, fn func(worker, i int) timing) []timing {
	out := make([]timing, n)
	var next atomic.Int64
	deadline := time.Now().Add(l.budget)
	fanOut(l.reg, c, func(w int) {
		for l.ctx.Err() == nil && time.Now().Before(deadline) {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if keep == nil || keep(i) {
				out[i] = fn(w, i)
			}
		}
	})
	return out
}

func (l *ladder) note(err error) {
	if err != nil {
		l.errMu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.errMu.Unlock()
	}
}

// generate returns the ladderN requests starting at index from, with their
// library form.
func (l *ladder) generate(from int) ([]request, []llm.Request) {
	reqs := make([]request, ladderN)
	lreqs := make([]llm.Request, ladderN)
	for i := range reqs {
		reqs[i] = l.gen.request(from + i)
		lreqs[i] = llmRequest(reqs[i].fields)
	}
	return reqs, lreqs
}

func llmRequest(f proxy.CompletionRequest) llm.Request {
	return llm.Request{Task: llm.Task(f.Task), Prompt: f.Prompt, Gold: f.Gold, Difficulty: f.Difficulty, NoiseKey: f.NoiseKey}
}

// requestContext derives the context the HTTP handler would build for r.
func requestContext(ctx context.Context, r request) context.Context {
	tenant := r.tenant
	if tenant == "" {
		tenant = obs.DefaultTenant
	}
	ctx = obs.WithTenant(ctx, tenant)
	if r.fields.Priority == "batch" {
		ctx = sched.WithClass(ctx, sched.Batch)
	}
	return ctx
}

// completeVia sends r through p's library entry point — Complete, or
// CompleteStream opened, drained and settled — and times it.
func completeVia(ctx context.Context, p *proxy.Proxy, r request, lr llm.Request) (timing, proxy.Answer, error) {
	ctx = requestContext(ctx, r)
	var ans proxy.Answer
	var err error
	t := timed(func() {
		if !r.fields.Stream {
			ans, err = p.Complete(ctx, lr)
			return
		}
		var s proxy.Stream
		if s, err = p.CompleteStream(ctx, lr); err != nil {
			return
		}
		defer s.Close()
		for err == nil {
			_, err = s.Recv()
		}
		if err == io.EOF {
			ans, err = s.Answer()
		}
	})
	return t, ans, err
}

// newCache builds a semantic cache the way proxy.New does and fills it with
// the prefilled prompts directly, which skips the lookup each prefill
// request pays over HTTP.
func (l *ladder) newCache() *semcache.Cache {
	c := semcache.New(semcache.Config{
		Embedder:  embed.New(embed.DefaultDim),
		Capacity:  l.sp.cacheCap,
		Threshold: 0.97,
		Policy:    semcache.Weighted,
		Obs:       l.reg,
		Log:       l.log,
	})
	for id := 0; id < l.sp.prefill; id++ {
		text := l.gen.gold(id)
		if t := l.texts[id].Load(); t != nil {
			text = *t
		}
		c.Put(l.gen.prompt(id), text, semcache.Original, semcache.Reuse)
	}
	return c
}

// runLadder runs the traced pass, adds the per-layer timing metrics to
// res.metrics and writes the span file.
func runLadder(ctx context.Context, res *result, st *stack, gen *generator, texts expectations, traceDir string) error {
	reg := obs.NewRegistry()
	l := &ladder{ctx: ctx, res: res, st: st, gen: gen, sp: res.sp, c: clients(), texts: texts, reg: reg,
		budget: time.Duration(passShare * res.win.seconds * float64(time.Second)),
		log:    obs.NewLogger(obs.NewEventLog(obs.DefaultEventCapacity), obs.Debug, reg)}

	t0 := nowNS()
	l.reqs, l.llmReqs = l.generate(ladderBase)
	res.metrics["bench.gen_us_per_req"] = float64(nowNS()-t0) / 1e3 / ladderN
	for _, r := range l.reqs {
		l.prompts = append(l.prompts, r.fields.Prompt)
	}

	l.httpRung()
	if err := l.proxyRungs(); err != nil {
		return err
	}
	if !l.sp.noCache {
		if err := l.cacheRungs(); err != nil {
			return err
		}
	}
	l.embedRungs()
	l.cascadeRungs()
	if l.err != nil {
		return fmt.Errorf("traced pass: %w", l.err)
	}
	l.codecRungs()
	l.microRungs()
	return writeSpans(filepath.Join(traceDir, "trace-"+l.sp.name+".jsonl"), l.assemble())
}

// httpRung sends the requests over HTTP with the model timer on. The pass
// alternates, block by block, with an untimed-model pass over other
// requests of the same stream, and the two medians give the tracing
// overhead: adjacent in time, so drift in the machine cancels.
func (l *ladder) httpRung() {
	const blocks = 4
	const block = ladderN / blocks
	m := l.res.metrics
	cls := make([]*client, l.c)
	for w := range cls {
		cls[w] = newClient(l.st.url)
		defer cls[w].close()
	}
	plain, _ := l.generate(ladderBase + 2*ladderN)
	plainT := make([]timing, ladderN)
	l.replies = make([]reply, ladderN)
	l.httpT = make([]timing, ladderN)
	l.httpCached = make([]bool, ladderN)
	for b := 0; b < blocks; b++ {
		copy(plainT[b*block:], l.pass(block, l.c, nil, func(w, i int) timing {
			rep := cls[w].do(l.ctx, plain[b*block+i])
			return timing{rep.sent, rep.done}
		}))
		l.st.timer.on.Store(true)
		copy(l.httpT[b*block:], l.pass(block, l.c, nil, func(w, i int) timing {
			i += b * block
			l.replies[i] = cls[w].do(l.ctx, l.reqs[i])
			return timing{l.replies[i].sent, l.replies[i].done}
		}))
		l.st.timer.on.Store(false)
	}
	l.httpCalls = callsByPrompt(l.st.timer.take())
	for i, rep := range l.replies {
		if rep.sent != 0 { // the pass reached it
			a, err := checkReply(rep, l.sp.stream)
			if err != nil {
				l.note(fmt.Errorf("request %d: %w", i, err))
			}
			l.httpCached[i] = a.source == "cache"
		}
	}
	m["proxy.http.roundtrip_us"], l.res.counts["proxy.http.roundtrip_us"] = medianUS(l.httpT)
	if base, _ := medianUS(plainT); base > 0 {
		m["bench.trace_overhead_pct"] = (m["proxy.http.roundtrip_us"]/base - 1) * 100
	}
	// Report only: the proxy's own cache.lookup spans for the last traced
	// requests, against the harness's timing of the same layer, so the
	// later in-program tracing change starts from a known disagreement.
	var own []float64
	for _, tr := range l.st.proxy.Tracer().Recent(0) {
		for _, ch := range tr.Children {
			if ch.Name == "cache.lookup" {
				own = append(own, ch.DurationMS*1e3)
			}
		}
	}
	l.ownLookupUS = median(own)
}

// proxyRungs times the proxy's library entry point, on the next requests of
// the stream (replaying the same ones would find them cached), and the same
// again on a proxy with the telemetry sinks turned down. The telemetry tax
// is the difference, taken inside each path (cache hit or not) and weighted
// by the path's share, so a workload with two paths is not comparing one
// path's median with the other's.
func (l *ladder) proxyRungs() error {
	m := l.res.metrics
	later, laterLLM := l.generate(ladderBase + ladderN)
	l.proxyCached = make([]bool, ladderN)
	l.proxyT = l.pass(ladderN, l.c, nil, func(_, i int) timing {
		t, ans, err := completeVia(l.ctx, l.st.proxy, later[i], laterLLM[i])
		l.note(err)
		l.proxyCached[i] = ans.Source == "cache"
		return t
	})
	m["proxy.complete_us"], l.res.counts["proxy.complete_us"] = medianUS(l.proxyT)

	quiet, err := startStack(l.sp, false, true)
	if err != nil {
		return err
	}
	if err := prefill(l.ctx, quiet, l.sp, l.gen, make(expectations, len(l.texts))); err != nil {
		return errors.Join(err, quiet.close(l.ctx))
	}
	quietCached := make([]bool, ladderN)
	quietT := l.pass(ladderN, l.c, nil, func(_, i int) timing {
		t, ans, err := completeVia(l.ctx, quiet.proxy, later[i], laterLLM[i])
		l.note(err)
		quietCached[i] = ans.Source == "cache"
		return t
	})
	if err := quiet.close(l.ctx); err != nil {
		return err
	}
	tax, ran := 0.0, 0
	for _, cached := range []bool{true, false} {
		var full, turnedDown []float64
		for i := range l.proxyT {
			if l.proxyT[i].ran() && l.proxyCached[i] == cached {
				full = append(full, l.proxyT[i].us())
			}
			if quietT[i].ran() && quietCached[i] == cached {
				turnedDown = append(turnedDown, quietT[i].us())
			}
		}
		if len(full) > 0 && len(turnedDown) > 0 {
			tax += float64(len(full)) * (median(full) - median(turnedDown))
			ran += len(full)
		}
	}
	if ran > 0 {
		m["proxy.telemetry_tax_us"] = tax / float64(ran)
	}
	return nil
}

// cacheRungs times the semantic cache at the clients' concurrency and from
// one goroutine, and the vector index under it at the cache's size. Puts
// run for the requests the lookup missed, as in the proxy.
func (l *ladder) cacheRungs() error {
	m := l.res.metrics
	l.hit = make([]bool, ladderN)
	l.exact = make([]bool, ladderN)
	missed := func(i int) bool { return !l.hit[i] }
	cacheA := l.newCache()
	l.lookupC = l.pass(ladderN, l.c, nil, func(_, i int) timing {
		var h semcache.Hit
		t := timed(func() { h, l.hit[i] = cacheA.Lookup(l.prompts[i]) })
		l.exact[i] = h.Exact
		return t
	})
	l.lookup1 = l.pass(ladderN, 1, nil, func(_, i int) timing {
		return timed(func() { cacheA.Lookup(l.prompts[i]) })
	})

	emb := embed.New(embed.DefaultDim)
	idx := vector.NewFlat(emb.Dim(), vector.Cosine)
	for id := 0; id < l.sp.prefill; id++ {
		if err := idx.Add(vector.Item{ID: vector.ID(id), Vec: emb.Text(l.gen.prompt(id))}); err != nil {
			return err
		}
	}
	m["vector.rows"] = float64(idx.Len())
	m["vector.scan_bytes"] = float64(idx.Len() * emb.Dim() * 4) // computed, not measured
	vecs := make([]embed.Vector, ladderN)
	for i, p := range l.prompts {
		vecs[i] = emb.Text(p)
	}
	l.searchT = l.pass(ladderN, 1, nil, func(_, i int) timing {
		return timed(func() { idx.Search(vecs[i], 1) })
	})

	l.evicting = l.sp.cacheCap > 0 && cacheA.Len() >= l.sp.cacheCap
	put := func(c *semcache.Cache, i int) timing {
		return timed(func() { c.Put(l.prompts[i], l.reqs[i].fields.Gold, semcache.Original, semcache.Reuse) })
	}
	l.putC = l.pass(ladderN, l.c, missed, func(_, i int) timing { return put(cacheA, i) })
	cacheB := l.newCache() // a put of a prompt the cache holds only refreshes it
	l.put1 = l.pass(ladderN, 1, missed, func(_, i int) timing { return put(cacheB, i) })
	l.addT = l.pass(ladderN, 1, missed, func(_, i int) timing {
		it := vector.Item{ID: vector.ID(newPromptBase + i), Vec: vecs[i]}
		return timed(func() { l.note(idx.Add(it)) })
	})
	l.removeT = l.pass(ladderN, 1, missed, func(_, i int) timing {
		return timed(func() { idx.Remove(vector.ID(newPromptBase + i)) })
	})
	return nil
}

// embedRungs times the two embedding entry points the cache uses: the
// pooled one on lookup, the allocating one on put.
func (l *ladder) embedRungs() {
	emb := embed.New(embed.DefaultDim)
	l.scratchT = l.pass(ladderN, 1, nil, func(_, i int) timing {
		return timed(func() { emb.ReleaseScratch(emb.TextScratch(l.prompts[i])) })
	})
	l.textT = l.pass(ladderN, 1, nil, func(_, i int) timing {
		return timed(func() { emb.Text(l.prompts[i]) })
	})
	bytesTotal := 0
	for _, p := range l.prompts {
		bytesTotal += len(p)
	}
	l.res.metrics["embed.prompt_bytes"] = float64(bytesTotal) / ladderN
}

// cascadeRungs times the cascade, for the requests the cache did not
// answer, over a harness-owned model family behind its own timer; and on
// the paced workload the scheduler in front of the first tier against the
// same tier called directly.
func (l *ladder) cascadeRungs() {
	m := l.res.metrics
	timer := &modelTimer{}
	timer.on.Store(true)
	models := buildModels(l.sp, llm.DefaultFamilyObs(l.reg), timer)
	casc := &cascade.Cascade{
		Models:        models,
		Decide:        cascade.Threshold{Tau: 0.62},
		Breakers:      resilience.NewBreakerSet(resilience.BreakerConfig{Obs: l.reg, Log: l.log}),
		ExitThreshold: 0.35,
		Obs:           l.reg,
		Log:           l.log,
	}
	var scheduler *sched.Scheduler
	if l.sp.paced {
		var batchables []llm.BatchModel
		for _, mod := range models {
			batchables = append(batchables, mod.(llm.BatchModel))
		}
		scheduler = sched.New(sched.Config{Obs: l.reg, Log: l.log}, batchables...)
		defer scheduler.Close()
		casc.Sched = scheduler
	}
	missed := func(i int) bool { return l.hit == nil || !l.hit[i] }
	l.firstChunk = make([]timing, ladderN)
	l.cascT = l.pass(ladderN, l.c, missed, func(_, i int) timing {
		ctx := requestContext(l.ctx, l.reqs[i])
		if !l.sp.stream {
			return timed(func() {
				_, _, err := casc.Complete(ctx, l.llmReqs[i])
				l.note(err)
			})
		}
		ctx = sched.WithClass(ctx, sched.Streaming)
		return timed(func() {
			rs, err := casc.CompleteStream(ctx, l.llmReqs[i])
			if err != nil {
				l.note(err)
				return
			}
			defer rs.Close()
			l.firstChunk[i].start = nowNS()
			for n := 0; err == nil; n++ {
				_, err = rs.Recv()
				if n == 0 {
					l.firstChunk[i].end = nowNS()
				}
			}
			_, _, err = rs.Result()
			l.note(err)
		})
	})
	l.cascCalls = callsByPrompt(timer.take())

	if scheduler != nil {
		submitT := l.pass(ladderN, l.c, nil, func(_, i int) timing {
			return timed(func() {
				_, err := scheduler.Submit(l.ctx, llm.NameSmall, l.llmReqs[i])
				l.note(err)
			})
		})
		directT := l.pass(ladderN, 1, nil, func(_, i int) timing {
			return timed(func() {
				_, err := models[0].Complete(l.ctx, l.llmReqs[i])
				l.note(err)
			})
		})
		m["sched.submit_us"], l.res.counts["sched.submit_us"] = medianUS(submitT)
		direct, _ := medianUS(directT)
		m["sched.queue_wait_us"] = m["sched.submit_us"] - direct
	}
}

// assemble turns the rungs into the layer timings and one trace per
// request: the spans of every rung that ran for it and took the path the
// HTTP request took, nested the way the proxy calls the layers.
func (l *ladder) assemble() []span {
	m, counts := l.res.metrics, l.res.counts
	for name, ts := range map[string][]timing{
		"semcache.lookup_us": l.lookupC, "semcache.lookup_c1_us": l.lookup1,
		"semcache.put_us": l.putC, "semcache.put_c1_us": l.put1,
		"embed.scratch_us": l.scratchT, "embed.text_us": l.textT,
		"vector.search_us": l.searchT, "vector.add_us": l.addT, "vector.remove_us": l.removeT,
		"cascade.complete_us": l.cascT, "cascade.first_chunk_us": l.firstChunk,
	} {
		m[name], counts[name] = medianUS(ts)
	}
	m["semcache.lookup_wait_us"] = m["semcache.lookup_us"] - m["semcache.lookup_c1_us"]
	var llmUS []float64
	for _, calls := range []map[string][]modelCall{l.httpCalls, l.cascCalls} {
		for _, cs := range calls {
			for _, c := range cs {
				llmUS = append(llmUS, float64(c.end-c.start)/1e3)
			}
		}
	}
	m["llm.call_us"], counts["llm.call_us"] = median(llmUS), len(llmUS)
	if l.ownLookupUS > 0 && m["semcache.lookup_us"] > 0 {
		m["bench.span_agreement_pct"] = (m["semcache.lookup_us"]/l.ownLookupUS - 1) * 100
	}

	ran := func(ts []timing, i int) bool { return ts != nil && ts[i].ran() }
	var spans []span
	var httpSelf, proxySelf, lookupSelf, putSelf, cascSelf []float64
	for i := 0; i < ladderN; i++ {
		if !l.httpT[i].ran() {
			continue
		}
		root := newNode("proxy.http", l.httpT[i])
		for _, c := range l.httpCalls[l.prompts[i]] {
			root.adopt(newNode("llm", timing{c.start, c.end})) // timed inside this very request
		}
		// Each rung answered its request from the cache or did not; a rung
		// that took the other path than the HTTP request says nothing
		// about it.
		if l.proxyT[i].ran() && l.proxyCached[i] == l.httpCached[i] {
			px := newNode("proxy", l.proxyT[i])
			root.lay(px)
			httpSelf = append(httpSelf, root.selfUS("proxy"))
			samePath := l.sp.noCache || (ran(l.lookupC, i) && l.hit[i] == l.httpCached[i])
			if samePath && ran(l.lookupC, i) {
				px.lay(newNode("semcache.lookup", l.lookupC[i]))
				if ran(l.lookup1, i) {
					c1 := newNode("semcache.lookup.c1", l.lookup1[i])
					px.twin(c1)
					if !l.exact[i] && ran(l.scratchT, i) && ran(l.searchT, i) {
						c1.lay(newNode("embed", l.scratchT[i]), newNode("vector", l.searchT[i]))
					}
					lookupSelf = append(lookupSelf, c1.selfUS("embed", "vector"))
				}
			}
			if samePath && ran(l.cascT, i) {
				cn := newNode("cascade", l.cascT[i])
				for _, c := range l.cascCalls[l.prompts[i]] {
					cn.adopt(newNode("llm", timing{c.start, c.end}))
				}
				cascSelf = append(cascSelf, cn.selfUS("llm"))
				px.lay(cn)
			}
			if samePath && ran(l.putC, i) {
				px.lay(newNode("semcache.put", l.putC[i]))
				if ran(l.put1, i) && ran(l.textT, i) && ran(l.addT, i) {
					c1 := newNode("semcache.put.c1", l.put1[i])
					px.twin(c1)
					c1.lay(newNode("embed", l.textT[i]), newNode("vector", l.addT[i]))
					if l.evicting && ran(l.removeT, i) {
						c1.lay(newNode("vector", l.removeT[i]))
					}
					putSelf = append(putSelf, c1.selfUS("embed", "vector"))
				}
			}
			if samePath {
				proxySelf = append(proxySelf, px.selfUS("semcache.lookup", "cascade", "semcache.put"))
			}
		}
		spans = root.flatten(spans, i, 0)
	}
	m["proxy.http.self_us"] = median(httpSelf)
	m["proxy.self_us"] = median(proxySelf)
	m["semcache.lookup_self_us"] = median(lookupSelf)
	m["semcache.put_self_us"] = median(putSelf)
	m["cascade.self_us"] = median(cascSelf)
	return spans
}

func callsByPrompt(calls []modelCall) map[string][]modelCall {
	by := make(map[string][]modelCall)
	for _, c := range calls {
		by[c.prompt] = append(by[c.prompt], c)
	}
	return by
}

// codecRungs times the HTTP surface's two codecs on the traced pass's own
// payloads: the request decode, and the reply encode (the whole JSON body,
// or one SSE chunk frame).
func (l *ladder) codecRungs() {
	var dec, enc []float64
	for i, rep := range l.replies {
		if !l.httpT[i].ran() {
			continue
		}
		body := l.reqs[i].body
		dec = append(dec, timed(func() {
			var req proxy.CompletionRequest
			_ = json.NewDecoder(bytes.NewReader(body)).Decode(&req) // the body is the harness's own
		}).us())
		if l.sp.stream {
			for _, ev := range rep.events {
				var ch proxy.Chunk
				if ev.name != "chunk" || json.Unmarshal(ev.data, &ch) != nil {
					continue
				}
				enc = append(enc, timed(func() {
					data, _ := json.Marshal(ch) // round-trips what the proxy just encoded
					_, _ = io.WriteString(io.Discard, "event: chunk\ndata: "+string(data)+"\n\n")
				}).us())
			}
			continue
		}
		var cr proxy.CompletionResponse
		if json.Unmarshal(rep.body, &cr) == nil {
			enc = append(enc, timed(func() { _ = json.NewEncoder(io.Discard).Encode(cr) }).us())
		}
	}
	l.res.metrics["proxy.http.decode_us"] = median(dec)
	l.res.metrics["proxy.http.encode_us"] = median(enc)
}

// microRungs times the calls too short for a span: the admission gates, the
// five telemetry sinks and the tokenizer, each on harness-owned instances.
func (l *ladder) microRungs() {
	m, ctx := l.res.metrics, l.ctx
	lim := resilience.NewLimiter(resilience.LimiterConfig{MaxConcurrent: 64, MaxQueue: 64, Obs: l.reg, Log: l.log})
	m["resilience.limiter_acquire_ns"] = microNS(func(int) {
		if lim.Acquire(ctx) == nil {
			lim.Release()
		}
	})
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{Obs: l.reg, Log: l.log})
	m["resilience.breaker_allow_ns"] = microNS(func(int) { breakers.Allow(llm.NameSmall) })

	tracer := obs.NewTracer(traceRing)
	m["obs.span_ns"] = microNS(func(i int) {
		sctx, root := tracer.Start(ctx, "bench_root")
		root.SetAttr("request", i)
		_, child := obs.StartSpan(sctx, "bench_child")
		child.SetAttr("hit", true)
		child.End()
		root.End()
	})
	m["obs.event_ns"] = microNS(func(i int) {
		l.log.Event(ctx, obs.Info, "bench_event", "source", "cache", "model", "cache", "cost_microusd", int64(i), "elapsed", time.Microsecond)
	})
	hist := l.reg.Histogram("bench_latency_seconds", obs.LatencyBuckets)
	m["obs.histogram_ns"] = microNS(func(i int) { hist.ObserveWithExemplar(float64(i%microBatch)*1e-5, "t1") })
	slo := obs.NewSLOTracker(obs.SLOConfig{Obs: l.reg})
	m["obs.slo_record_ns"] = microNS(func(int) { slo.Record("interactive", 50*time.Microsecond, true) })
	tenants := obs.NewTenantAccountant(obs.TenantConfig{Obs: l.reg})
	m["obs.tenant_record_ns"] = microNS(func(i int) {
		tenants.Record(l.reqs[i%ladderN].tenant, obs.TenantSample{Latency: 50 * time.Microsecond, CacheHit: true})
	})
	m["token.count_ns"] = microNS(func(i int) { token.Count(l.prompts[i%ladderN]) })
}

// node is one span in a request's tree.
type node struct {
	span
	kids []*node
	laid int64 // total duration of the children laid so far
}

func newNode(name string, t timing) *node {
	return &node{span: span{Name: name, Start: t.start, End: t.end}}
}

func (n *node) shift(delta int64) {
	n.Start += delta
	n.End += delta
	for _, k := range n.kids {
		k.shift(delta)
	}
}

// adopt attaches a child that was timed inside n: its clock times stand.
func (n *node) adopt(k *node) { n.kids = append(n.kids, k) }

// lay attaches children timed in a pass of their own, end to end from n's
// start, keeping each duration. Layers are timed in separate passes over the
// same requests, so their clock times do not nest; laying them out makes one
// trace read as one request, with every duration as measured.
func (n *node) lay(kids ...*node) {
	for _, k := range kids {
		k.shift(n.Start + n.laid - k.Start)
		n.laid += k.dur()
		n.kids = append(n.kids, k)
	}
}

// twin attaches the single-goroutine timing of n's last child beside it,
// starting where that child starts.
func (n *node) twin(k *node) {
	k.shift(n.kids[len(n.kids)-1].Start - k.Start)
	n.kids = append(n.kids, k)
}

// selfUS is n's self time in µs, counting only the named children.
func (n *node) selfUS(names ...string) float64 {
	var kids []span
	for _, k := range n.kids {
		for _, name := range names {
			if k.Name == name {
				kids = append(kids, k.span)
			}
		}
	}
	return float64(selfTime(n.span, kids)) / 1e3
}

// flatten appends n's subtree to out, numbering spans in the order written.
func (n *node) flatten(out []span, trace, parent int) []span {
	s := n.span
	s.Trace, s.Span, s.Parent = trace, len(out)+1, parent
	out = append(out, s)
	for _, k := range n.kids {
		out = k.flatten(out, trace, s.Span)
	}
	return out
}

// The cascade's one tier loop. Every run — request/response or streamed —
// is a RunStream: a pull state machine that opens tiers cheapest first,
// consumes each tier as a chunk stream and decides accept / escalate.
// How a tier is opened is the only difference between the read modes:
//
//   - a request in the sched.Streaming class opens a model that supports
//     it with GenerateStream, watches per-chunk confidence, and aborts the
//     tier mid-generation the moment confidence collapses — escalating
//     while having billed only the chunks actually emitted (the "refund"
//     relative to a tier that always pays in full);
//   - every other tier is one regular call — through the batching
//     scheduler when it manages the model — wrapped as a single pre-billed
//     chunk.
//
// Complete drains the machine; CompleteStream returns it.
package cascade

import (
	"context"
	"errors"
	"io"
	"math"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/token"
)

// exitMinChunks is how many chunks a tier must emit before the
// early-exit rule may abort it — the first chunks of a stream carry
// mostly prior, not signal.
const exitMinChunks = 2

// ErrStreamActive is returned by RunStream.Result while the stream has
// not yet finished.
var ErrStreamActive = errors.New("cascade: stream still active")

// StreamChunk is one chunk of a streamed cascade run: the model chunk
// plus which tier produced it. A cascade stream may switch tiers
// mid-flight (early exit or rejection), signalled by Restart — consumers
// rendering text should discard what they buffered from earlier tiers.
type StreamChunk struct {
	llm.Chunk
	// Model names the tier that produced this chunk.
	Model string
	// Tier is the model's index in the cascade (0 = cheapest).
	Tier int
	// Restart marks the first chunk of a new tier after an escalation:
	// everything streamed before it belongs to an abandoned attempt.
	Restart bool
}

// CompleteStream runs the request through the cascade as a chunk
// stream. Chunks carry incremental cost; billing accrues only for
// delivered chunks, so an early-exited tier bills exactly what it
// emitted. The chunk marked Final belongs to the accepted tier; a
// rejected tier's last chunk arrives with Final false, followed by the
// next tier's Restart chunk. Only requests in the sched.Streaming class
// token-stream (and only from tiers implementing llm.StreamModel); any
// other tier arrives as a single chunk around the regular call, billed
// in full.
func (c *Cascade) CompleteStream(ctx context.Context, req llm.Request) (*RunStream, error) {
	if len(c.Models) == 0 {
		return nil, ErrNoModels
	}
	c.resolve.Do(c.resolveSeries)
	return &RunStream{
		c: c, ctx: ctx, req: req,
		streaming: sched.ClassFrom(ctx) == sched.Streaming,
		tier:      -1, next: -1,
	}, nil
}

// RunStream is one in-flight cascade run. It is a synchronous pull state
// machine: Recv advances tiers, applies the early-exit rule and the
// accept decision, and surfaces exactly the chunks that were billed. Not
// safe for concurrent Recv.
type RunStream struct {
	c         *Cascade
	ctx       context.Context
	req       llm.Request
	streaming bool // sched.Streaming request: token-stream the tiers that can

	// The open tier: its index, the breaker epoch it was admitted under,
	// its stream and cascade.step span, and what it has emitted so far.
	// cur is nil between tiers.
	tier       int
	epoch      uint64
	cur        llm.Stream
	sp         *obs.Span
	tierChunks int
	tierCost   token.Cost
	tierConf   float64
	// next is the tier to open after this one, once pickNext chose it
	// (next > tier), and nextEpoch its breaker's admission; len(Models)
	// means none is left.
	next      int
	nextEpoch uint64

	tr Trace
	// steps backs tr.Steps, so a run of up to four tiers records its steps
	// without allocating; a longer one grows the slice past it. Result
	// hands out tr, so steps lives as long as any Trace read from it.
	steps  [4]Step
	done   bool
	result llm.Response
	err    error
	closed bool
}

// Recv returns the next chunk of the run. After the accepted tier's
// Final chunk it returns io.EOF; a tier error or exhausted cascade
// surfaces as the terminal error.
func (r *RunStream) Recv() (StreamChunk, error) {
	if r.closed {
		return StreamChunk{}, llm.ErrStreamClosed
	}
	for !r.done {
		if r.cur == nil {
			if r.pickNext() == len(r.c.Models) {
				// Only reachable before the first attempt: a rejected tier
				// with nowhere to go is force-accepted where it ends.
				r.c.noTier.Inc()
				r.finish(llm.Response{}, ErrAllTiersOpen)
				break
			}
			if err := r.openTier(); err != nil {
				return StreamChunk{}, err
			}
		}
		ch, err := r.cur.Recv()
		if err != nil {
			return StreamChunk{}, r.tierError(err)
		}
		ch.Confidence = finite(ch.Confidence)
		// Billing accrues per delivered chunk, so the trace total equals
		// the sum of chunk costs whatever state the run ends in.
		r.tierChunks++
		r.tierCost += ch.Cost
		r.tierConf = ch.Confidence
		r.tr.TotalCost += ch.Cost
		out := StreamChunk{Chunk: ch, Model: r.c.Models[r.tier].Name(), Tier: r.tier,
			Restart: r.tierChunks == 1 && len(r.tr.Steps) > 0}
		switch {
		case ch.Final:
			out.Final = r.finalizeTier()
		case r.shouldExit():
			r.earlyExit()
		}
		return out, nil
	}
	if r.err != nil {
		return StreamChunk{}, r.err
	}
	return StreamChunk{}, io.EOF
}

// finite is what a tier's confidence counts as inside the cascade: itself,
// or 0 when the tier reported NaN or an infinity. It is applied at the two
// places a tier's output enters — each chunk and the final response — so
// a value that is no probability never clears a threshold, is never
// compared by the exit rule, and never reaches a trace, an event or the
// wire, where JSON has no form for it. The last tier is accepted as ever.
func finite(confidence float64) float64 {
	if math.IsNaN(confidence) || math.IsInf(confidence, 0) {
		return 0
	}
	return confidence
}

// pickNext chooses the tier to open after the current one: the first
// whose breaker admits the request, recording the refused ones as
// skipped. Each breaker is asked once per run — Allow may hand out the
// half-open probe slot, so asking again would refuse it — and the choice
// sticks until that tier is opened. len(Models) means none is left.
func (r *RunStream) pickNext() int {
	c := r.c
	if r.next > r.tier {
		return r.next
	}
	for r.next = r.tier + 1; r.next < len(c.Models); r.next++ {
		if c.Breakers == nil {
			break
		}
		name := c.Models[r.next].Name()
		var ok bool
		if r.nextEpoch, ok = c.Breakers.Allow(name); ok {
			break
		}
		if _, sp := obs.StartSpan(r.ctx, "cascade.step"); sp != nil { // nil under an unkept trace
			sp.SetAttr("model", name)
			sp.SetAttr("tier", r.next)
			sp.SetAttr("outcome", "skipped")
			sp.End()
		}
		c.tiers[r.next].skipped.Inc()
		c.Log.Event(r.ctx, obs.Warn, "cascade_tier_skip", "model", name, "tier", r.next)
	}
	return r.next
}

// openTier starts the picked tier under its own cascade.step span. A
// streaming-class request token-streams a model that can; everything
// else is one regular (possibly scheduler-batched) call wrapped as a
// single pre-billed chunk.
func (r *RunStream) openTier() error {
	c := r.c
	r.tier, r.epoch, r.tierChunks, r.tierCost, r.tierConf = r.next, r.nextEpoch, 0, 0, 0
	m := c.Models[r.tier]
	// Under an unkept trace the span is nil and the debug event dropped:
	// their attributes, which box, are built only when they record.
	ctx, sp := obs.StartSpan(r.ctx, "cascade.step")
	if sp != nil {
		sp.SetAttr("model", m.Name())
		sp.SetAttr("tier", r.tier)
	}
	r.sp = sp
	if c.Log.Enabled(r.ctx, obs.Debug) {
		c.Log.Event(r.ctx, obs.Debug, "cascade_tier_attempt", "model", m.Name(), "tier", r.tier)
	}
	var err error
	if sm, ok := m.(llm.StreamModel); ok && r.streaming {
		r.cur, err = sm.GenerateStream(ctx, r.req)
	} else {
		var resp llm.Response
		if resp, err = c.step(ctx, m, r.req); err == nil {
			r.cur = llm.StaticStream(resp)
		}
	}
	if err != nil {
		return r.tierError(err)
	}
	return nil
}

// shouldExit applies the early-exit rule to the chunk just delivered:
// the tier has emitted enough chunks to trust the signal, confidence
// collapsed below the exit threshold, and a later tier is actually
// available to escalate to.
func (r *RunStream) shouldExit() bool {
	c := r.c
	return c.ExitThreshold > 0 && r.tierChunks >= exitMinChunks &&
		r.tierConf < c.ExitThreshold && r.pickNext() < len(c.Models)
}

// earlyExit aborts the current tier mid-generation: its stream is closed
// (the unstreamed remainder is never billed), it is recorded as a
// rejected step costing only its emitted chunks, and the next Recv opens
// the escalation target.
func (r *RunStream) earlyExit() {
	c := r.c
	name := c.Models[r.tier].Name()
	if c.Breakers != nil {
		// An abort for quality is not a tier failure.
		c.Breakers.Record(name, r.epoch, true)
	}
	c.tiers[r.tier].earlyExit.Inc()
	c.tiers[r.tier].earlyExits.Inc()
	if c.Log.Enabled(r.ctx, obs.Info) {
		c.Log.Event(r.ctx, obs.Info, "stream_early_exit",
			"model", name, "tier", r.tier, "confidence", r.tierConf,
			"chunks", r.tierChunks, "billed_microusd", int64(r.tierCost))
	}
	r.endTier("early_exit", r.tierConf, false)
}

// finalizeTier runs the accept decision once a tier's stream completed,
// and reports whether the tier's last chunk should be marked Final for
// the consumer (i.e. the run is over).
func (r *RunStream) finalizeTier() bool {
	c := r.c
	name := c.Models[r.tier].Name()
	resp, _ := r.cur.Final()
	resp.Confidence = finite(resp.Confidence)
	if c.Breakers != nil {
		c.Breakers.Record(name, r.epoch, true)
	}
	accepted := r.tier == len(c.Models)-1 || resp.Confidence >= c.Decide.Tau
	if !accepted && r.pickNext() == len(c.Models) {
		// The escalation target was skipped (breaker open): serve the
		// answer we just paid for instead of failing the request.
		accepted = true
		c.forcedAccept.Inc()
	}
	outcome, steps := "reject", c.tiers[r.tier].reject
	if accepted {
		outcome, steps = "accept", c.tiers[r.tier].accept
	}
	steps.Inc()
	if r.sp != nil {
		r.sp.SetAttr("tokens_in", resp.InputTokens)
		r.sp.SetAttr("tokens_out", resp.OutputTokens)
	}
	r.endTier(outcome, resp.Confidence, accepted)
	if accepted {
		r.finish(resp, nil)
		return true
	}
	if c.Log.Enabled(r.ctx, obs.Info) {
		c.Log.Event(r.ctx, obs.Info, "cascade_escalate", "from", name, "tier", r.tier, "confidence", resp.Confidence)
	}
	return false
}

// tierError terminates the run on a tier failure.
func (r *RunStream) tierError(err error) error {
	c := r.c
	name := c.Models[r.tier].Name()
	if c.Breakers != nil && !errors.Is(err, context.Canceled) {
		// Client cancellations say nothing about the tier's health.
		c.Breakers.Record(name, r.epoch, false)
	}
	c.tiers[r.tier].errors.Inc()
	c.Log.Event(r.ctx, obs.Warn, "cascade_tier_error", "model", name, "tier", r.tier, "error", err.Error())
	r.endTier("error", r.tierConf, false)
	r.finish(llm.Response{}, err)
	return err
}

// endTier closes the open tier — its stream, so an unfinished remainder
// never bills, and its span — and records it as a step when it billed
// anything: an errored or abandoned tier is a rejected step costing what
// it emitted, which keeps Trace.TotalCost equal to the steps' costs (and
// to the model meters) at every terminal state.
func (r *RunStream) endTier(outcome string, confidence float64, accepted bool) {
	if r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
	if r.sp != nil {
		r.sp.SetAttr("outcome", outcome)
		if r.tierChunks > 0 {
			r.sp.SetAttr("confidence", confidence)
			r.sp.SetAttr("cost_microusd", int64(r.tierCost))
		}
		r.sp.End()
	}
	if r.tierChunks > 0 {
		if r.tr.Steps == nil {
			r.tr.Steps = r.steps[:0]
		}
		r.tr.Steps = append(r.tr.Steps, Step{
			Model:      r.c.Models[r.tier].Name(),
			Confidence: confidence,
			Accepted:   accepted,
			Cost:       r.tierCost,
		})
	}
}

// finish seals the run and settles the run-level counters.
func (r *RunStream) finish(resp llm.Response, err error) {
	r.done, r.result, r.err = true, resp, err
	r.c.escalations.Add(int64(r.tr.Escalations()))
	if err == nil {
		r.c.requests.Inc()
		r.c.finalModel(r.tier, resp.Model).Inc()
	}
}

// Close aborts the run. Chunks already delivered stay billed (the open
// tier is recorded as a rejected step costing them); its stream is
// closed so the remainder never bills. Idempotent.
func (r *RunStream) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if !r.done {
		if r.cur != nil {
			r.endTier("aborted", r.tierConf, false)
		}
		r.finish(llm.Response{}, llm.ErrStreamClosed)
	}
	return nil
}

// Result returns the accepted response and the run trace once the
// stream has finished (Recv returned io.EOF or a terminal error).
// Trace.TotalCost is exactly the sum of delivered chunk costs.
func (r *RunStream) Result() (llm.Response, Trace, error) {
	if !r.done {
		return llm.Response{}, r.tr, ErrStreamActive
	}
	return r.result, r.tr, r.err
}

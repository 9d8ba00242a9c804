package llm

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/token"
)

// BatchModel is a Model that can additionally serve many requests in one
// upstream call. Batched inference is the core serving optimization of
// GPU-backed LLM deployments: the marginal latency of an extra request in
// a batch is a small fraction of a standalone call, while billing stays
// per item. internal/sched groups queued requests into batches and feeds
// them through this interface.
type BatchModel interface {
	Model
	// GenerateBatch runs every request in one batched call. On success it
	// returns exactly one Response per request, in order; each response
	// carries its own per-item token billing, and every response reports
	// the same Latency — the wall-clock of the whole batch (sub-linear in
	// the batch size, see BatchLatency). A single error fails the whole
	// batch, as with a real batched API call.
	GenerateBatch(ctx context.Context, reqs []Request) ([]Response, error)
}

// DefaultBatchOverhead is the marginal latency of each extra batched
// item, as a fraction of the longest item's standalone latency — every
// simulated model's (see BatchLatency).
// The value models a GPU server whose batched forward pass is dominated
// by the longest sequence, with a small per-item increment.
const DefaultBatchOverhead = 0.08

// BatchLatency is the simulated wall-clock of a batched call: the longest
// item's standalone latency plus `overhead` of it per additional item —
// sub-linear in n, versus n·latency for sequential calls.
func BatchLatency(maxItem time.Duration, n int, overhead float64) time.Duration {
	if n <= 1 {
		return maxItem
	}
	if overhead <= 0 {
		overhead = DefaultBatchOverhead
	}
	return time.Duration(float64(maxItem) * (1 + overhead*float64(n-1)))
}

// GenerateBatch implements BatchModel. Each item is adjudicated, billed
// and metered exactly as an individual Complete call would be (so usage
// meters match the sum of per-item costs), but the reported latency is
// the batch's sub-linear wall-clock.
func (m *SimModel) GenerateBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		m.mErrors.Inc()
		return nil, err
	}
	for _, r := range reqs {
		if r.Prompt == "" {
			m.mErrors.Inc()
			return nil, ErrEmptyPrompt
		}
	}
	_, sp := obs.StartSpan(ctx, "llm.generate_batch")
	if sp != nil { // nil under an unkept trace: box nothing
		sp.SetAttr("model", m.name)
		sp.SetAttr("batch_size", len(reqs))
		defer sp.End()
	}

	resps := make([]Response, len(reqs))
	var maxLat time.Duration
	var cost token.Cost
	for i := range reqs {
		// The batch context is the scheduler's detached one, not any single
		// submitter's, so per-item exemplars would mislink; items stay
		// exemplar-free here.
		resps[i] = m.answer(reqs[i], "")
		if resps[i].Latency > maxLat {
			maxLat = resps[i].Latency
		}
		cost += resps[i].Cost
	}
	lat := BatchLatency(maxLat, len(reqs), DefaultBatchOverhead)
	for i := range resps {
		resps[i].Latency = lat
	}
	if sp != nil {
		sp.SetAttr("cost_microusd", int64(cost))
		sp.SetAttr("latency_ms", lat.Milliseconds())
	}
	return resps, nil
}

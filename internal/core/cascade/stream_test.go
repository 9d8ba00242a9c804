package cascade

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/token"
)

// streamCtx is a request in the streaming class: the one whose tiers
// token-stream instead of arriving as a single pre-billed chunk.
func streamCtx() context.Context {
	return sched.WithClass(context.Background(), sched.Streaming)
}

// streamTier builds one tier with a private metrics registry so tests
// can compare meters across independent model instances.
func streamTier(name string, capability float64, in, out token.Cost) *llm.SimModel {
	return llm.NewSim(llm.SimConfig{
		Name:       name,
		Capability: capability,
		Price:      token.Price{InputPer1K: in, OutputPer1K: out},
		Obs:        obs.NewRegistry(),
	})
}

func drainRun(t *testing.T, rs *RunStream) []StreamChunk {
	t.Helper()
	var chunks []StreamChunk
	for {
		ch, err := rs.Recv()
		if errors.Is(err, io.EOF) {
			return chunks
		}
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		chunks = append(chunks, ch)
	}
}

// hardReq is a request the cheap tier reliably fails: its wrong answer
// is long enough to stream several chunks before (or after) the exit
// rule can trigger.
func hardReq() llm.Request {
	return llm.Request{
		Task:       llm.TaskQA,
		Prompt:     "which join order minimizes intermediate result size for the ten way star query",
		Gold:       "join the fact table last after filtering every dimension table first",
		Wrong:      "the answer could not be determined from the available statistics in the catalog",
		Difficulty: 0.9,
	}
}

// Without early exit, a run read as a stream bills exactly what Complete
// bills for the same request, tier for tier — whichever way its tiers
// are opened: one pre-billed chunk per tier for an interactive request,
// token chunks for a streaming-class one.
func TestCascadeStreamMatchesComplete(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ctx        context.Context
		multiChunk bool
	}{
		{"interactive", context.Background(), false},
		{"streaming", streamCtx(), true},
	} {
		t.Run(tc.name, func(t *testing.T) { testCascadeStreamMatchesComplete(t, tc.ctx, tc.multiChunk) })
	}
}

func testCascadeStreamMatchesComplete(t *testing.T, ctx context.Context, multiChunk bool) {
	req := hardReq()

	mkCascade := func() (*Cascade, *llm.SimModel, *llm.SimModel) {
		cheap := streamTier("cheap", 0.2, 400, 400)
		strong := streamTier("strong", 0.95, 30000, 60000)
		c := New(Threshold{Tau: 0.62}, cheap, strong)
		c.Obs = obs.NewRegistry()
		c.Log = obs.NewLogger(obs.NewEventLog(16), obs.Debug, obs.NewRegistry())
		return c, cheap, strong
	}

	cRef, cheapRef, strongRef := mkCascade()
	respRef, trRef, err := cRef.Complete(context.Background(), req)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}

	cStr, cheapStr, strongStr := mkCascade()
	rs, err := cStr.CompleteStream(ctx, req)
	if err != nil {
		t.Fatalf("CompleteStream: %v", err)
	}
	chunks := drainRun(t, rs)
	resp, tr, err := rs.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}

	if resp.Text != respRef.Text || resp.Model != respRef.Model || resp.Cost != respRef.Cost {
		t.Fatalf("streamed result %+v != Complete result %+v", resp, respRef)
	}
	if tr.TotalCost != trRef.TotalCost || len(tr.Steps) != len(trRef.Steps) {
		t.Fatalf("streamed trace %+v != Complete trace %+v", tr, trRef)
	}
	var sum token.Cost
	var finalText string
	for _, ch := range chunks {
		sum += ch.Cost
		if ch.Restart {
			finalText = ""
		}
		finalText += ch.Text
	}
	if sum != tr.TotalCost {
		t.Fatalf("sum of chunk costs %d != trace total %d", sum, tr.TotalCost)
	}
	if finalText != resp.Text {
		t.Fatalf("reassembled final-tier text %q != %q", finalText, resp.Text)
	}
	if got, want := cheapStr.Meter(), cheapRef.Meter(); got != want {
		t.Fatalf("cheap tier meters differ: stream %+v vs complete %+v", got, want)
	}
	if got, want := strongStr.Meter(), strongRef.Meter(); got != want {
		t.Fatalf("strong tier meters differ: stream %+v vs complete %+v", got, want)
	}

	// Protocol shape: exactly one Final chunk, at the end; the strong
	// tier's first chunk is marked Restart.
	for i, ch := range chunks {
		if ch.Final != (i == len(chunks)-1) {
			t.Fatalf("chunk %d Final=%v", i, ch.Final)
		}
	}
	sawRestart := false
	for _, ch := range chunks {
		if ch.Restart {
			if ch.Tier != 1 || ch.Model != "strong" {
				t.Fatalf("restart chunk on wrong tier: %+v", ch)
			}
			sawRestart = true
		}
	}
	if !sawRestart {
		t.Fatal("expected a Restart chunk when the cascade escalated")
	}
	if got := len(chunks) > len(tr.Steps); got != multiChunk {
		t.Fatalf("%d chunks over %d tiers, want token-streamed tiers = %v", len(chunks), len(tr.Steps), multiChunk)
	}
}

// The tentpole invariant: early exit aborts the cheap tier
// mid-generation and bills strictly less than the cheap tier's
// full-generation cost, meter-exactly.
func TestCascadeStreamEarlyExitRefundMeterExact(t *testing.T) {
	req := hardReq()

	// Reference: what the cheap tier would bill if allowed to finish.
	refCheap := streamTier("cheap", 0.2, 400, 400)
	fullResp, err := refCheap.Complete(context.Background(), req)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}

	cheap := streamTier("cheap", 0.2, 400, 400)
	strong := streamTier("strong", 0.95, 30000, 60000)
	c := New(Threshold{Tau: 0.62}, cheap, strong)
	c.Obs = obs.NewRegistry()
	c.Log = obs.NewLogger(obs.NewEventLog(16), obs.Debug, obs.NewRegistry())
	c.ExitThreshold = 0.35

	rs, err := c.CompleteStream(streamCtx(), req)
	if err != nil {
		t.Fatalf("CompleteStream: %v", err)
	}
	chunks := drainRun(t, rs)
	resp, tr, err := rs.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}

	if len(tr.Steps) != 2 {
		t.Fatalf("expected 2 steps (early exit + strong), got %+v", tr.Steps)
	}
	exit := tr.Steps[0]
	if exit.Accepted || exit.Model != "cheap" {
		t.Fatalf("unexpected first step %+v", exit)
	}
	if exit.Confidence >= c.ExitThreshold {
		t.Fatalf("exit step confidence %.3f not below threshold %.3f", exit.Confidence, c.ExitThreshold)
	}
	if exit.Cost >= fullResp.Cost {
		t.Fatalf("early-exited tier billed %d, full generation costs %d — no refund", exit.Cost, fullResp.Cost)
	}
	// Meter-exact: the cheap model's meter holds exactly the emitted
	// chunks, nothing more.
	if got := cheap.Meter().Spend; got != exit.Cost {
		t.Fatalf("cheap meter spend %d != early-exit step cost %d", got, exit.Cost)
	}
	var sum token.Cost
	cheapChunks := 0
	for _, ch := range chunks {
		sum += ch.Cost
		if ch.Model == "cheap" {
			cheapChunks++
			if ch.Final {
				t.Fatal("aborted cheap tier must not emit a Final chunk")
			}
		}
	}
	if sum != tr.TotalCost {
		t.Fatalf("sum of chunk costs %d != trace total %d", sum, tr.TotalCost)
	}
	if cheapChunks == 0 {
		t.Fatal("early exit should still forward the chunks that triggered it")
	}
	if resp.Model != "strong" {
		t.Fatalf("expected escalation to strong, got %q", resp.Model)
	}
	if got := strong.Meter().Spend; got != tr.Steps[1].Cost {
		t.Fatalf("strong meter spend %d != its step cost %d", got, tr.Steps[1].Cost)
	}
	if total := cheap.Meter().Spend + strong.Meter().Spend; total != tr.TotalCost {
		t.Fatalf("meters %d != trace total %d", total, tr.TotalCost)
	}
}

// Closing a run mid-stream stops billing at the delivered chunks.
func TestCascadeStreamCloseMidStream(t *testing.T) {
	cheap := streamTier("cheap", 0.2, 400, 400)
	strong := streamTier("strong", 0.95, 30000, 60000)
	c := New(Threshold{Tau: 0.62}, cheap, strong)
	c.Obs = obs.NewRegistry()
	c.Log = obs.NewLogger(obs.NewEventLog(16), obs.Debug, obs.NewRegistry())

	rs, err := c.CompleteStream(streamCtx(), hardReq())
	if err != nil {
		t.Fatalf("CompleteStream: %v", err)
	}
	ch, err := rs.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := rs.Recv(); !errors.Is(err, llm.ErrStreamClosed) {
		t.Fatalf("Recv after Close: %v", err)
	}
	if _, _, err := rs.Result(); !errors.Is(err, llm.ErrStreamClosed) {
		t.Fatalf("Result after Close: %v", err)
	}
	if spent := cheap.Meter().Spend + strong.Meter().Spend; spent != ch.Cost {
		t.Fatalf("billed %d after aborting at one chunk costing %d", spent, ch.Cost)
	}
}

// The spend invariant holds at every terminal state, not only on accept:
// a tier that errors or is closed after its first billed chunk is a
// rejected step costing what it emitted, so Trace.TotalCost still equals
// the delivered chunk costs and the model meters.
func TestCascadeStreamAbortedTierSpend(t *testing.T) {
	for _, tc := range []struct {
		name  string
		abort func(cancel context.CancelFunc, rs *RunStream) error
		want  error
	}{
		{"context canceled after one chunk", func(cancel context.CancelFunc, rs *RunStream) error {
			cancel()
			_, err := rs.Recv()
			return err
		}, context.Canceled},
		{"closed after one chunk", func(_ context.CancelFunc, rs *RunStream) error {
			rs.Close()
			_, _, err := rs.Result()
			return err
		}, llm.ErrStreamClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cheap := streamTier("cheap", 0.2, 400, 400)
			strong := streamTier("strong", 0.95, 30000, 60000)
			c := New(Threshold{Tau: 0.62}, cheap, strong)
			c.Obs = obs.NewRegistry()
			c.Log = obs.NewLogger(obs.NewEventLog(16), obs.Debug, obs.NewRegistry())

			ctx, cancel := context.WithCancel(streamCtx())
			defer cancel()
			rs, err := c.CompleteStream(ctx, hardReq())
			if err != nil {
				t.Fatalf("CompleteStream: %v", err)
			}
			defer rs.Close()
			ch, err := rs.Recv()
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			if ch.Cost == 0 || ch.Final {
				t.Fatalf("first chunk %+v: want a billed, non-final chunk", ch)
			}
			if err := tc.abort(cancel, rs); !errors.Is(err, tc.want) {
				t.Fatalf("abort: %v, want %v", err, tc.want)
			}
			_, tr, err := rs.Result()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Result: %v, want %v", err, tc.want)
			}
			meters := cheap.Meter().Spend + strong.Meter().Spend
			if tr.TotalCost != ch.Cost || meters != ch.Cost {
				t.Fatalf("trace total %d, meters %d, delivered chunk cost %d", tr.TotalCost, meters, ch.Cost)
			}
			if len(tr.Steps) != 1 || tr.Steps[0].Accepted || tr.Steps[0].Model != "cheap" || tr.Steps[0].Cost != ch.Cost {
				t.Fatalf("steps = %+v, want the aborted cheap tier as one rejected step costing %d", tr.Steps, ch.Cost)
			}
		})
	}
}

// Non-streaming tiers degrade to a single pre-billed chunk.
func TestCascadeStreamNonStreamTier(t *testing.T) {
	cheap := streamTier("cheap", 0.95, 400, 400)
	c := New(Threshold{Tau: 0.3}, opaqueModel{cheap})
	c.Obs = obs.NewRegistry()
	c.Log = obs.NewLogger(obs.NewEventLog(16), obs.Debug, obs.NewRegistry())

	req := llm.Request{Prompt: "easy question about a table", Gold: "a short answer", Difficulty: 0.1}
	rs, err := c.CompleteStream(context.Background(), req)
	if err != nil {
		t.Fatalf("CompleteStream: %v", err)
	}
	chunks := drainRun(t, rs)
	if len(chunks) != 1 || !chunks[0].Final {
		t.Fatalf("expected one final chunk from a non-stream tier, got %+v", chunks)
	}
	resp, tr, err := rs.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if chunks[0].Cost != resp.Cost || tr.TotalCost != resp.Cost {
		t.Fatalf("pre-billed chunk cost %d, resp %d, trace %d", chunks[0].Cost, resp.Cost, tr.TotalCost)
	}
}

// opaqueModel hides the stream capability of its inner model.
type opaqueModel struct{ inner *llm.SimModel }

func (o opaqueModel) Name() string { return o.inner.Name() }
func (o opaqueModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return o.inner.Complete(ctx, req)
}

// With every breaker open the stream fails like Complete does.
func TestCascadeStreamAllTiersOpen(t *testing.T) {
	cheap := streamTier("cheap", 0.5, 400, 400)
	c := New(Threshold{Tau: 0.5}, cheap)
	c.Obs = obs.NewRegistry()
	c.Log = obs.NewLogger(obs.NewEventLog(16), obs.Debug, obs.NewRegistry())
	c.Breakers = frozenBreakers(nil)
	fail(c.Breakers, "cheap", 8)
	if _, ok := c.Breakers.Allow("cheap"); ok {
		t.Skip("breaker did not open; config drifted")
	}
	rs, err := c.CompleteStream(context.Background(), hardReq())
	if err != nil {
		t.Fatalf("CompleteStream: %v", err)
	}
	if _, err := rs.Recv(); !errors.Is(err, ErrAllTiersOpen) {
		t.Fatalf("Recv: %v, want ErrAllTiersOpen", err)
	}
	if _, _, err := rs.Result(); !errors.Is(err, ErrAllTiersOpen) {
		t.Fatalf("Result: %v, want ErrAllTiersOpen", err)
	}
}

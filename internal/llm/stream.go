package llm

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/token"
)

// Chunk is one incremental piece of a streamed generation.
type Chunk struct {
	// Text is this chunk's piece of the completion; concatenating every
	// chunk's Text reproduces the full Response.Text exactly.
	Text string
	// Index is the 0-based position of this chunk within its stream.
	Index int
	// Confidence is the model's running confidence estimate after emitting
	// this chunk. It starts near an uninformed prior and converges to the
	// final Response.Confidence — the signal an early-exit cascade watches
	// for mid-generation collapse.
	Confidence float64
	// Cost is the incremental cost of this chunk alone. The first chunk
	// absorbs the prompt-token cost; summed over a full stream the chunk
	// costs equal the Response.Cost of the equivalent Complete call exactly
	// (meter-exact), and an aborted stream has billed only the chunks it
	// emitted.
	Cost token.Cost
	// Latency is the cumulative simulated wall-clock through this chunk;
	// the final chunk's Latency equals the Complete call's Response.Latency.
	Latency time.Duration
	// Final marks the last chunk of the stream.
	Final bool
}

// Stream is a token stream from one model call. Streams are not safe for
// concurrent Recv; Close may be called concurrently with Recv.
type Stream interface {
	// Recv returns the next chunk. After the Final chunk it returns io.EOF;
	// after Close it returns ErrStreamClosed; a dead context surfaces the
	// context's error. Billing happens per delivered chunk, so abandoning a
	// stream early leaves the undelivered remainder unbilled.
	Recv() (Chunk, error)
	// Close aborts the stream. Chunks already delivered stay billed; the
	// remainder is never billed (the "refund" of an early exit). Close is
	// idempotent.
	Close() error
	// Final returns the completed response once the stream has delivered
	// its Final chunk. The bool is false while streaming or after an abort.
	Final() (Response, bool)
}

// StreamModel is a Model that can emit its completion incrementally.
type StreamModel interface {
	Model
	// GenerateStream starts one streamed call. The returned stream emits
	// deterministic token chunks whose costs sum to exactly the Complete
	// cost of the same request; billing accrues chunk by chunk.
	GenerateStream(ctx context.Context, req Request) (Stream, error)
}

// ErrStreamClosed is returned by Recv after the consumer closed the
// stream.
var ErrStreamClosed = errors.New("llm: stream closed")

// streamPrior is the uninformed confidence a stream starts from before
// the generation has produced enough signal to converge on the final
// confidence.
const streamPrior = 0.55

// GenerateStream implements StreamModel. The stream is deterministic for
// a given (model, request): same chunks, same confidences, same costs on
// every run. Each delivered chunk bills its incremental cost into the
// model's meter and metrics, so an aborted stream has paid for exactly
// the chunks it emitted. The call is adjudicated here; each chunk is
// planned by the Recv that delivers it, so an abandoned stream never
// plans its remainder.
func (m *SimModel) GenerateStream(ctx context.Context, req Request) (Stream, error) {
	if err := ctx.Err(); err != nil {
		m.mErrors.Inc()
		return nil, err
	}
	if req.Prompt == "" {
		m.mErrors.Inc()
		return nil, ErrEmptyPrompt
	}
	_, sp := obs.StartSpan(ctx, "llm.generate_stream")
	resp, noise := m.adjudicate(req)
	n := 1 // empty text is one empty Final chunk billing the minimum token
	for end := nextPiece(resp.Text, 0); end < len(resp.Text); end = nextPiece(resp.Text, end) {
		n++
	}
	if sp != nil { // nil under an unkept trace: box nothing
		sp.SetAttr("model", m.name)
		sp.SetAttr("chunks", n)
		sp.End()
	}

	// The call itself is counted when the stream opens; tokens and spend
	// accrue per chunk.
	m.mCalls.Inc()
	return &simStream{
		m: m, ctx: ctx, resp: resp, n: n,
		confNoise: fnvFold(noise, "stream"),
		trace:     obs.SampledTraceID(ctx),
	}, nil
}

// nextPiece returns the end of the chunk of text that starts at byte off.
// Chunks cut at word boundaries with whitespace attached to the following
// word, so the concatenation reproduces text byte for byte: a chunk ends
// right before the first non-space byte after a run of ASCII spaces. A
// cut therefore always follows an ASCII space, where the tokenizer holds
// no partial piece, so a prefix's token count is the sum of its chunks'.
func nextPiece(text string, off int) int {
	inSpace := false
	for i := off; i < len(text); i++ {
		if c := text[i]; c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			inSpace = true
		} else if inSpace {
			return i
		}
	}
	return len(text)
}

// sqrt is a dependency-free Newton square root for the [0,1] ratios the
// confidence schedule uses (avoids importing math for one call, and
// math.Sqrt rounds differently in the last bit). It stops at the
// iteration's fixed point, which further steps cannot move, so it equals
// twenty steps exactly; the schedule's ratios get there within eleven.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		next := (z + x/z) / 2
		if next == z {
			break
		}
		z = next
	}
	return z
}

// simStream is SimModel's deterministic stream. The mutex serializes
// Recv against Close and guards the plan's position; billing happens
// under the model's own meter lock.
type simStream struct {
	m     *SimModel
	ctx   context.Context
	resp  Response
	n     int // chunks in the stream
	trace string
	// confNoise is the noise state of (model, key, "stream"): chunk i's
	// confidence jitter folds only i's digits onto it.
	confNoise uint64

	mu     sync.Mutex
	next   int        // index of the next chunk
	off    int        // byte offset of the next chunk in resp.Text
	cum    int        // output tokens through the last delivered chunk
	cost   token.Cost // call cost through the last delivered chunk
	closed bool
	done   bool
}

// Recv implements Stream. Each delivered chunk bills its incremental
// tokens and cost; the prompt tokens ride the first chunk.
func (s *simStream) Recv() (Chunk, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Chunk{}, ErrStreamClosed
	}
	if err := s.ctx.Err(); err != nil {
		s.closed = true
		s.mu.Unlock()
		return Chunk{}, err
	}
	if s.next >= s.n {
		s.mu.Unlock()
		return Chunk{}, io.EOF
	}
	ch, out := s.planLocked()
	if ch.Final {
		s.done = true
	}
	s.mu.Unlock()

	s.bill(ch, out)
	return ch, nil
}

// planLocked cuts the next chunk and advances the plan past it, returning
// the chunk and the output tokens it bills. Costs telescope: the chunk
// costs the call's price at the running output-token count less the
// price through the previous chunk, so a full stream sums to resp.Cost
// exactly. The final chunk trues the stream up to the billed counts
// (Complete clamps empty outputs to one billable token) and reports the
// call's own confidence and latency. Before it, confidence moves from an
// uninformed prior toward the final confidence on a square-root schedule
// (collapse is visible within the first quarter of the generation), with
// a ±0.03 jitter keyed like the model's other noise streams.
func (s *simStream) planLocked() (Chunk, int) {
	m, resp, i := s.m, &s.resp, s.next
	end := nextPiece(resp.Text, s.off)
	ch := Chunk{Text: resp.Text[s.off:end], Index: i, Final: i == s.n-1}
	var out, cum int
	if ch.Final {
		out = max(resp.OutputTokens-s.cum, 0)
		cum = max(resp.OutputTokens, s.cum)
		ch.Confidence, ch.Latency = resp.Confidence, resp.Latency
	} else {
		out = token.Count(ch.Text)
		cum = s.cum + out
		conf := streamPrior + (resp.Confidence-streamPrior)*sqrt(float64(i+1)/float64(s.n))
		conf += (unitFloat(fnvFoldInt(s.confNoise, i)) - 0.5) * 2 * 0.03
		ch.Confidence = clamp(conf, 0.02, 0.98)
		ch.Latency = time.Duration(float64(resp.InputTokens+cum) / m.tokensPerSec * float64(time.Second))
	}
	cost := m.price.ForTokens(resp.InputTokens, cum)
	ch.Cost = cost - s.cost
	s.next, s.off, s.cum, s.cost = i+1, end, cum, cost
	return ch, out
}

// bill accrues one chunk and its output tokens into the meter and
// metrics.
func (s *simStream) bill(ch Chunk, out int) {
	m := s.m
	in := 0
	if ch.Index == 0 {
		in = s.resp.InputTokens
	}
	m.mu.Lock()
	if ch.Index == 0 {
		m.meter.Calls++
	}
	m.meter.InputTokens += in
	m.meter.OutputTokens += out
	m.meter.Spend += ch.Cost
	m.mu.Unlock()

	if in > 0 {
		m.mTokensIn.Add(int64(in))
	}
	if out > 0 {
		m.mTokensOut.Add(int64(out))
	}
	m.mCost.Add(int64(ch.Cost))
	if ch.Final {
		m.mLatency.ObserveWithExemplar(ch.Latency.Seconds(), s.trace)
		m.mCallCost.ObserveWithExemplar(float64(s.resp.Cost), s.trace)
	}
}

// Close implements Stream.
func (s *simStream) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// Final implements Stream.
func (s *simStream) Final() (Response, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		return Response{}, false
	}
	return s.resp, true
}

// StaticStream wraps an already-produced (and already-billed) response
// as a single-chunk stream: the chunk carries the whole text and the
// response's cost for display, but delivers no additional billing. It is
// how non-streaming tiers, cache hits and coalesced replays join a
// streamed serving path.
func StaticStream(resp Response) Stream {
	return &staticStream{resp: resp}
}

type staticStream struct {
	mu     sync.Mutex
	resp   Response
	sent   bool
	closed bool
}

// Recv implements Stream.
func (s *staticStream) Recv() (Chunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Chunk{}, ErrStreamClosed
	}
	if s.sent {
		return Chunk{}, io.EOF
	}
	s.sent = true
	return Chunk{
		Text:       s.resp.Text,
		Confidence: s.resp.Confidence,
		Cost:       s.resp.Cost,
		Latency:    s.resp.Latency,
		Final:      true,
	}, nil
}

// Close implements Stream.
func (s *staticStream) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// Final implements Stream.
func (s *staticStream) Final() (Response, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resp, s.sent && !s.closed
}

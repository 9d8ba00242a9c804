package llm

import (
	"context"
	"errors"
	"io"
	"strconv"
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
// the chunks it emitted.
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
	resp := m.adjudicate(req)
	key := req.NoiseKey
	if key == "" {
		key = req.Prompt
	}
	chunks := planChunks(m, resp, key)
	if sp != nil { // nil under an unkept trace: box nothing
		sp.SetAttr("model", m.name)
		sp.SetAttr("chunks", len(chunks))
		sp.End()
	}

	// The call itself is counted when the stream opens; tokens and spend
	// accrue per chunk.
	m.mCalls.Inc()
	return &simStream{m: m, ctx: ctx, resp: resp, chunks: chunks, trace: obs.SampledTraceID(ctx)}, nil
}

// planChunks splits an adjudicated response into word-boundary chunks
// with telescoped incremental costs: chunk k's cost is the difference
// between the call cost at its cumulative output-token count and the
// previous chunk's, so the sum over all chunks is exactly resp.Cost. The
// confidence trajectory moves from an uninformed prior toward the final
// confidence on a square-root schedule (fast early movement — collapse
// is visible within the first quarter of the generation) with small
// deterministic per-chunk jitter.
func planChunks(m *SimModel, resp Response, key string) []Chunk {
	pieces := splitStream(resp.Text)
	n := len(pieces)
	chunks := make([]Chunk, n)
	prevCum := 0
	var prevCost token.Cost
	prefixLen := 0
	for i, piece := range pieces {
		prefixLen += len(piece)
		cum := token.Count(resp.Text[:prefixLen])
		if i == n-1 {
			// The final chunk trues the stream up to the billed counts
			// (Complete clamps empty outputs to one billable token).
			cum = resp.OutputTokens
		}
		if cum < prevCum {
			cum = prevCum
		}
		cost := m.price.ForTokens(resp.InputTokens, cum)
		conf := streamConfidence(m, key, i, n, resp.Confidence)
		chunks[i] = Chunk{
			Text:       piece,
			Index:      i,
			Confidence: conf,
			Cost:       cost - prevCost,
			Latency:    time.Duration(float64(resp.InputTokens+cum) / m.tokensPerSec * float64(time.Second)),
			Final:      i == n-1,
		}
		prevCum, prevCost = cum, cost
	}
	chunks[n-1].Latency = resp.Latency
	return chunks
}

// streamConfidence is the deterministic mid-generation confidence after
// chunk i of n: the prior pulled toward the final confidence by
// sqrt((i+1)/n), plus a ±0.03 jitter keyed like the model's other noise
// streams. The last chunk reports the final confidence exactly.
func streamConfidence(m *SimModel, key string, i, n int, final float64) float64 {
	if i == n-1 {
		return final
	}
	ratio := float64(i+1) / float64(n)
	conf := streamPrior + (final-streamPrior)*sqrt(ratio)
	conf += (noiseUnit(m.name, key, "stream"+strconv.Itoa(i)) - 0.5) * 2 * 0.03
	return clamp(conf, 0.02, 0.98)
}

// sqrt is a dependency-free Newton square root for the [0,1] ratios the
// confidence schedule uses (avoids importing math for one call).
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// splitStream cuts text into chunks at word boundaries, whitespace
// attached to the following word so the concatenation reproduces text
// byte for byte. Empty text yields one empty chunk (the stream still
// emits a Final chunk carrying the minimum billable token).
func splitStream(text string) []string {
	if text == "" {
		return []string{""}
	}
	var out []string
	start := 0
	inSpace := false
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			inSpace = true
		default:
			if inSpace && i > start {
				out = append(out, text[start:i])
				start = i
			}
			inSpace = false
		}
	}
	out = append(out, text[start:])
	return out
}

// simStream is SimModel's deterministic stream. The mutex serializes
// Recv against Close; billing happens under the model's own meter lock.
type simStream struct {
	m      *SimModel
	ctx    context.Context
	resp   Response
	chunks []Chunk
	trace  string

	mu     sync.Mutex
	next   int
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
	if s.next >= len(s.chunks) {
		s.mu.Unlock()
		return Chunk{}, io.EOF
	}
	ch := s.chunks[s.next]
	s.next++
	if ch.Final {
		s.done = true
	}
	s.mu.Unlock()

	s.bill(ch)
	return ch, nil
}

// bill accrues one chunk into the meter and metrics. Output tokens are
// derived from the chunk's own text except for the final true-up chunk,
// which settles the stream at the full billed count.
func (s *simStream) bill(ch Chunk) {
	m := s.m
	in := 0
	if ch.Index == 0 {
		in = s.resp.InputTokens
	}
	out := token.Count(ch.Text)
	if ch.Final {
		// Re-derive from the billed total so the stream's token sum always
		// matches Complete's, even when the text's last pieces straddle a
		// chunk boundary or the output clamps to one token.
		billed := 0
		for _, prev := range s.chunks[:ch.Index] {
			billed += token.Count(prev.Text)
		}
		out = s.resp.OutputTokens - billed
		if out < 0 {
			out = 0
		}
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

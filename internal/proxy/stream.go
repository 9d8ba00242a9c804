// The back half of the serving pipeline: every in-flight call is a chunk
// replay log fed by one detached upstream cascade run, and every client —
// the leader and each coalesced follower, streamed or request/response —
// is a reader of that log:
//
//   - the upstream pump (proxy.go) appends each cascade chunk as it is
//     billed: token chunks with mid-generation early exit for a
//     streaming-class leader, one pre-billed chunk per attempted tier
//     for an interactive or batch one;
//   - followers replay the same log live with costs zeroed, because the
//     leader's tenant paid for the run — and a follower (or the leader)
//     disconnecting mid-stream never disturbs the rest of the cohort;
//   - a failed upstream degrades per client to a stale cache chunk;
//   - semantic-cache hits stream instantly as a single pre-paid chunk.
//
// Billing stays meter-exact: the sum of a leader's chunk costs equals
// the cascade trace's TotalCost, which is what the spend counter and the
// tenant accountant record — once, when the run ends, however it ends.
package proxy

import (
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/token"
)

// Chunk is one server-sent piece of a streamed completion.
type Chunk struct {
	Text string `json:"text"`
	// Index orders chunks within the stream (0-based).
	Index int `json:"index"`
	// Model and Tier identify the cascade tier that produced the chunk
	// ("cache" for cache-served chunks).
	Model string `json:"model"`
	Tier  int    `json:"tier"`
	// Confidence is the producing model's running confidence after this
	// chunk.
	Confidence float64 `json:"confidence"`
	// Cost is the incremental cost of this chunk in micro-dollars. Zero
	// for followers and cache hits — the leader's tenant paid.
	Cost token.Cost `json:"cost_micro_usd"`
	// Restart marks the first chunk of a new attempt (tier escalation or
	// stale degrade): discard previously buffered text.
	Restart bool `json:"restart,omitempty"`
	// Final marks the last chunk of the stream.
	Final bool `json:"final,omitempty"`
}

// Stream is one client's view of a streamed completion.
type Stream interface {
	// Recv returns the next chunk, blocking until one is available. It
	// returns io.EOF after the Final chunk, llm.ErrStreamClosed after
	// Close, or the terminal error (context or upstream).
	Recv() (Chunk, error)
	// Close abandons the stream. The upstream keeps running for any
	// coalesced cohort; only this client stops reading. Idempotent.
	Close() error
	// Answer returns the settled Answer once the stream finished —
	// ErrStreamActive before that. Its Cost is the client's cost: the
	// full run for the leader, zero for followers and cache hits.
	Answer() (Answer, error)
}

// ErrStreamActive is returned by Stream.Answer before the stream has
// finished.
var ErrStreamActive = errors.New("proxy: stream still active")

// call is one in-flight upstream request and its chunk replay log: the
// upstream pump appends, every awaiting client reads. The run is detached
// from all of them, so the outcome is written exactly once (by finish) no
// matter which clients are still listening.
type call struct {
	mu     sync.Mutex
	chunks []Chunk
	// notify lets readers at the tail block without polling: it exists
	// only while some reader waits, and the next append (or finish)
	// closes and drops it.
	notify chan struct{}
	done   bool
	ans    Answer
	err    error
	steps  int
}

// wake releases the readers blocked at the tail. Called with c.mu held.
func (c *call) wake() {
	if c.notify != nil {
		close(c.notify)
		c.notify = nil
	}
}

// append adds one chunk, stamping its stream-order index.
func (c *call) append(ch Chunk) {
	c.mu.Lock()
	ch.Index = len(c.chunks)
	c.chunks = append(c.chunks, ch)
	c.wake()
	c.mu.Unlock()
}

// finish seals the log with the call's outcome.
func (c *call) finish(ans Answer, err error, steps int) {
	c.mu.Lock()
	c.done = true
	c.ans, c.err, c.steps = ans, err, steps
	c.wake()
	c.mu.Unlock()
}

// clientStream is one client's reader over a call's chunk log, and the
// keeper of the client's request record until finish reads it. All
// clients — the leader and every coalesced follower — read the same log;
// a follower's chunks are delivered with cost zeroed. The mutex makes
// Close safe to race with Recv (the HTTP layer closes from a defer while
// the pump loop reads).
type clientStream struct {
	request
	p      *Proxy
	prompt string
	c      *call     // nil for a pre-settled cache-hit stream
	wait   *obs.Span // a follower's coalesce.wait span; nil for everyone else

	mu      sync.Mutex
	closeCh chan struct{}
	next    int    // read position in the log
	pending *Chunk // cache-hit or stale-degrade chunk awaiting delivery
	// settled: nothing more will be read from the log; the record's
	// outcome, ans and err hold the result, reported once pending is
	// delivered.
	settled bool
	done    bool // terminal bookkeeping ran
	closed  bool
}

// newClientStream makes rq the record of a client served the given way;
// until something goes wrong, that is also how the request will end.
func (p *Proxy) newClientStream(rq request, prompt string, c *call, source string) *clientStream {
	rq.source, rq.outcome = source, source
	return &clientStream{request: rq, p: p, prompt: prompt, c: c, closeCh: make(chan struct{})}
}

// Recv implements Stream.
func (s *clientStream) Recv() (Chunk, error) {
	var one [1]Chunk
	for {
		got, wait, err := s.poll(one[:0])
		switch {
		case err != nil:
			return Chunk{}, err
		case wait == nil:
			return got[0], nil
		}
		if err := s.park(wait); err != nil {
			return Chunk{}, err
		}
	}
}

// poll is the non-blocking half of a read, and the whole of it for both
// read surfaces: it appends to dst the chunks that are ready, as many as
// dst has room for, under one round of the two locks. With none ready it
// returns either the channel that closes when the log moves — the reader
// would block — or the error that ends the stream: io.EOF after the Final
// chunk, llm.ErrStreamClosed after Close, or the terminal error.
func (s *clientStream) poll(dst []Chunk) (ready []Chunk, wait <-chan struct{}, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case s.closed:
			return dst, nil, llm.ErrStreamClosed
		case s.pending != nil:
			dst = append(dst, *s.pending)
			s.pending = nil
			s.deliver(&dst[len(dst)-1])
			return dst, nil, nil
		case s.settled:
			s.end()
			if s.err != nil {
				return dst, nil, s.err
			}
			return dst, nil, io.EOF
		}
		c := s.c
		c.mu.Lock()
		if n := min(len(c.chunks)-s.next, cap(dst)-len(dst)); n > 0 {
			dst = append(dst, c.chunks[s.next:s.next+n]...)
			c.mu.Unlock()
			s.next += n
			for i := len(dst) - n; i < len(dst); i++ {
				s.deliver(&dst[i])
			}
			return dst, nil, nil
		}
		if !c.done {
			if c.notify == nil {
				c.notify = make(chan struct{})
			}
			wait = c.notify
			c.mu.Unlock()
			return dst, wait, nil
		}
		ans, cerr := c.ans, c.err
		c.mu.Unlock()
		// Settling leaves a stale-degrade chunk pending, or the end.
		s.settle(ans, cerr)
	}
}

// park blocks a reader poll found at the tail until the log moves or the
// client stops listening, which ends the stream with the returned error.
func (s *clientStream) park(wait <-chan struct{}) error {
	select {
	case <-wait:
		return nil
	case <-s.closeCh:
		return llm.ErrStreamClosed
	case <-s.ctx.Done():
		// The upstream keeps running for any coalesced cohort (and to
		// populate the cache); only this client gives up.
		err := s.ctx.Err()
		s.mu.Lock()
		s.abandon("canceled", err)
		s.mu.Unlock()
		return err
	}
}

// deliver adjusts one chunk for this client and records the delivery; the
// first one to a client that asked for a stream is its
// time-to-first-token. Called with s.mu held.
func (s *clientStream) deliver(ch *Chunk) {
	if s.source == "coalesced" {
		ch.Cost = 0 // the leader's tenant paid
	}
	s.chunks++
	s.tier = ch.Tier
	if s.chunks == 1 && s.streamed {
		s.ttft = time.Since(s.start)
		s.p.log.Event(s.ctx, obs.Debug, "proxy_first_chunk", "source", s.p.series[s.source].label, "ttft", s.ttft)
	}
}

// settle resolves the stream once the shared log finished: the client's
// answer on success, a per-client stale degrade (or the error) on
// failure. Called with s.mu held.
func (s *clientStream) settle(ans Answer, err error) {
	s.settled = true
	s.wait.End()
	switch {
	case err != nil:
		s.outcome = "error"
		if stale, ok := s.p.degrade(s.ctx, s.prompt); ok {
			// One replacement chunk, marked Restart when this client
			// already saw partial output from the failed run.
			s.pending = &Chunk{Text: stale.Text, Model: stale.Model, Confidence: stale.Confidence,
				Restart: s.chunks > 0, Final: true, Index: s.next}
			ans, err, s.outcome = stale, nil, "stale"
		}
	case s.source == "coalesced":
		ans.Source = "coalesced"
		ans.Cost = 0 // the first caller paid
	default:
		s.steps = s.c.steps
	}
	s.ans, s.err = ans, err
}

// abandon settles the stream for a client that will read no further and
// accounts it by outcome: "canceled" when it stopped listening — a dead
// context or Close — and "error" when the server could not put the answer
// on the wire. The shared upstream (if any) keeps running for the rest of
// the cohort. Called with s.mu held.
func (s *clientStream) abandon(outcome string, err error) {
	if s.done {
		return
	}
	s.settled, s.pending, s.outcome = true, nil, outcome
	s.ans, s.err = Answer{}, err
	s.wait.SetAttr("outcome", outcome)
	s.wait.End()
	s.end()
}

// fail ends the stream of a client the server cannot finish answering:
// its request ends as an error, the cohort is untouched.
func (s *clientStream) fail(err error) {
	s.mu.Lock()
	s.abandon("error", err)
	s.mu.Unlock()
}

// end runs the request's terminal bookkeeping once. Called with s.mu
// held.
func (s *clientStream) end() {
	if s.done {
		return
	}
	s.done = true
	s.p.finish(&s.request)
}

// Close implements Stream.
func (s *clientStream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.closeCh)
		s.abandon("canceled", llm.ErrStreamClosed)
	}
	return nil
}

// Answer implements Stream.
func (s *clientStream) Answer() (Answer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		return Answer{}, ErrStreamActive
	}
	return s.ans, s.err
}

package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/token"
)

// wireWriter is an in-memory http.ResponseWriter that keeps apart what
// the handler has written and what a flush has made readable by the
// client, and counts the flushes. With failWrite set every Write fails,
// the way it does once the client has gone.
type wireWriter struct {
	failWrite bool

	mu       sync.Mutex
	header   http.Header
	status   int          // what WriteHeader (or the first write) committed
	buffered bytes.Buffer // written, not yet flushed
	wire     bytes.Buffer // flushed: the body as the client can read it
	flushes  int
}

func newWireWriter() *wireWriter { return &wireWriter{header: make(http.Header)} }

func (w *wireWriter) Header() http.Header { return w.header }

func (w *wireWriter) WriteHeader(status int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.status == 0 {
		w.status = status
	}
}

func (w *wireWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failWrite {
		return 0, errors.New("write: broken pipe")
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buffered.Write(b)
}

func (w *wireWriter) Flush() { w.FlushError() }

// FlushError is what the ResponseController calls.
func (w *wireWriter) FlushError() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.flushes++
	w.buffered.WriteTo(&w.wire)
	return nil
}

// seen reports the flush count, how many chunk events the client can
// read, and how many bytes sit written but unflushed.
func (w *wireWriter) seen() (flushes, chunksOnWire, unflushed int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushes, bytes.Count(w.wire.Bytes(), []byte("event: chunk\n")), w.buffered.Len()
}

// steppedSim streams like the SimModel it wraps, but each chunk waits
// for a token from step; closing step lets the rest run free.
type steppedSim struct {
	*llm.SimModel
	step chan struct{}
}

func (m steppedSim) GenerateStream(ctx context.Context, req llm.Request) (llm.Stream, error) {
	s, err := m.SimModel.GenerateStream(ctx, req)
	if err != nil {
		return nil, err
	}
	return &steppedStream{Stream: s, ctx: ctx, step: m.step}, nil
}

type steppedStream struct {
	llm.Stream
	ctx  context.Context
	step chan struct{}
}

func (s *steppedStream) Recv() (llm.Chunk, error) {
	select {
	case <-s.step:
	case <-s.ctx.Done():
		return llm.Chunk{}, s.ctx.Err()
	}
	return s.Stream.Recv()
}

// manyWords is an answer the simulated tier streams as 40 chunks, more
// than the handler takes from the log in one round.
var manyWords = strings.TrimSpace(strings.Repeat("word ", 40))

// steppedProxy is a cache-less one-tier proxy over a steppedSim, and the
// channel that paces it.
func steppedProxy(cfg Config) (*Proxy, chan struct{}) {
	// Room for every token of a request, so a test can release a run of
	// chunks without waiting for each to be taken.
	step := make(chan struct{}, 64)
	sim := llm.NewSim(llm.SimConfig{Name: "small", Capability: 0.9, Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: cfg.Obs})
	cfg.Models, cfg.DisableCache = []llm.Model{steppedSim{sim, step}}, true
	return New(cfg), step
}

// serveSSE runs one streamed POST /v1/complete against w in the
// background; the returned channel closes when the handler returns.
func serveSSE(p *Proxy, w http.ResponseWriter, req CompletionRequest) <-chan struct{} {
	req.Stream = true
	body, _ := json.Marshal(req)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(body)))
	}()
	return done
}

// logLen is how many chunks c's log holds.
func logLen(c *call) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.chunks)
}

// (a) An upstream that is ahead of the handler costs a number of flushes
// that does not depend on how many chunks it produced: here the log is
// complete before the handler reads, and the whole reply is one flush.
func TestSSEFlushesDoNotFollowChunkCount(t *testing.T) {
	p := newTestProxy(Config{DisableCache: true})
	s, err := p.openStream(context.Background(), llm.Request{Prompt: "an instant upstream", Gold: manyWords, Difficulty: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitFor(t, func() bool {
		s.c.mu.Lock()
		defer s.c.mu.Unlock()
		return s.c.done
	})
	w := newWireWriter()
	writeEvents(w, s)
	flushes, chunks, unflushed := w.seen()
	if chunks < 16 {
		t.Fatalf("the reply has %d chunk events, the test needs at least 16", chunks)
	}
	if flushes != 1 || unflushed != 0 {
		t.Fatalf("%d chunks took %d flushes and left %d bytes unflushed, want one flush and nothing left", chunks, flushes, unflushed)
	}
	events := readSSE(t, &w.wire)
	var done StreamDone
	if last := events[len(events)-1]; last.name != "done" || json.Unmarshal([]byte(last.data), &done) != nil || done.Chunks != chunks || done.Text != manyWords {
		t.Fatalf("terminal event %+v, want done with %d chunks", last, chunks)
	}
}

// (b) An upstream slower than the handler still gets a flush per chunk:
// the headers are readable before the first chunk exists, every chunk is
// readable before the next is released, and nothing sits written but
// unflushed while the handler waits.
func TestSSEFlushesEachChunkOfASlowUpstream(t *testing.T) {
	p, step := steppedProxy(Config{})
	const words = 5
	w := newWireWriter()
	handlerDone := serveSSE(p, w, CompletionRequest{Prompt: "a slow upstream", Gold: strings.TrimSpace(strings.Repeat("word ", words)), Difficulty: 0.05})

	waitFor(t, func() bool { flushes, _, _ := w.seen(); return flushes == 1 })
	if w.status != http.StatusOK || w.header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("before the first chunk the client sees status %d, Content-Type %q", w.status, w.header.Get("Content-Type"))
	}
	for i := 1; i <= words; i++ {
		step <- struct{}{}
		waitFor(t, func() bool { _, chunks, _ := w.seen(); return chunks == i })
		if i == words {
			break // the terminal event may follow at once
		}
		// The next chunk is not released, so the handler is parked or about
		// to be; what it wrote is out.
		if flushes, _, unflushed := w.seen(); unflushed != 0 || flushes != i+1 {
			t.Fatalf("after chunk %d: %d flushes, %d bytes written but not flushed; want %d and 0", i, flushes, unflushed, i+1)
		}
	}
	<-handlerDone
	events := readSSE(t, &w.wire)
	if len(events) != words+1 || events[words].name != "done" {
		t.Fatalf("events = %+v, want %d chunks and done", events, words)
	}
}

// (c) A coalesced follower that joins a call whose log already holds n
// chunks reads them, and the headers, in one flush.
func TestSSEFollowerReplaysTheLogInOneFlush(t *testing.T) {
	p, step := steppedProxy(Config{})
	req := llm.Request{Prompt: "a shared streamed prompt", Gold: manyWords, Difficulty: 0.05}
	leader, err := p.openStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	const n = streamBatch + 4
	for i := 0; i < n; i++ {
		step <- struct{}{}
	}
	waitFor(t, func() bool { return logLen(leader.c) == n })

	w := newWireWriter()
	handlerDone := serveSSE(p, w, CompletionRequest{Prompt: req.Prompt, Gold: req.Gold, Difficulty: req.Difficulty})
	waitFor(t, func() bool { flushes, _, _ := w.seen(); return flushes > 0 })
	if flushes, chunks, unflushed := w.seen(); flushes != 1 || chunks != n || unflushed != 0 {
		t.Fatalf("the follower's first flush: %d flushes, %d chunks readable, %d bytes unflushed; want 1, %d, 0", flushes, chunks, unflushed, n)
	}
	close(step)
	<-handlerDone
	if p.Stats().Coalesced != 1 {
		t.Fatalf("stats = %+v, the handler's request did not coalesce", p.Stats())
	}
	events := readSSE(t, &w.wire)
	var done StreamDone
	if last := events[len(events)-1]; last.name != "done" || json.Unmarshal([]byte(last.data), &done) != nil || done.Source != "coalesced" || done.Text != manyWords {
		t.Fatalf("terminal event %+v, want a coalesced done with the whole text", last)
	}
}

// (d) A client that is gone when a batch is written is one proxy_cancel:
// the handler returns at the failed write, the limiter slot comes back,
// the cohort's upstream finishes for the leader, and no goroutine stays.
func TestSSEDisconnectMidBatchIsOneCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	p, step := steppedProxy(Config{MaxConcurrent: 4})
	req := llm.Request{Prompt: "a shared prompt, one client leaves", Gold: manyWords, Difficulty: 0.05}
	leader, err := p.openStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		step <- struct{}{}
	}
	waitFor(t, func() bool { return logLen(leader.c) == 8 })

	w := newWireWriter()
	w.failWrite = true
	<-serveSSE(p, w, CompletionRequest{Prompt: req.Prompt, Gold: req.Gold, Difficulty: req.Difficulty})

	cancels, _, _ := p.Events().EventsSince(0, obs.EventFilter{Name: "proxy_cancel"})
	if len(cancels) != 1 || cancels[0].Attrs["chunks"] != "8" {
		t.Fatalf("proxy_cancel events = %+v, want one, after the 8 chunks the client took", cancels)
	}
	if running := p.limiter.Running(); running != 1 {
		t.Fatalf("limiter holds %d slots with only the leader left, want 1", running)
	}
	close(step)
	if got := assembleText(drainStream(t, leader)); got != manyWords {
		t.Fatalf("the leader read %q after the follower left", got)
	}
	leader.Close()
	if evs, _, _ := p.Events().EventsSince(0, obs.EventFilter{Name: "proxy_cancel"}); len(evs) != 1 {
		t.Fatalf("%d proxy_cancel events once the leader finished, want still 1", len(evs))
	}
	waitFor(t, func() bool { return p.limiter.Running() == 0 && runtime.NumGoroutine() <= base })
}

// A tier that reports a confidence which is no number is answered as if
// it had reported 0, in both read modes: at HEAD the JSON reply was an
// empty 200 and the event stream ended without a terminal event and was
// accounted as the client's cancel.
func TestNonFiniteConfidenceReachesTheWireAsZero(t *testing.T) {
	for name, conf := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		t.Run(name, func(t *testing.T) {
			tier := modelFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
				return llm.Response{Text: "an answer", Model: "func", Confidence: conf, Cost: 7}, nil
			})
			p := New(Config{Models: []llm.Model{tier}, DisableCache: true})

			rec := httptest.NewRecorder()
			body, _ := json.Marshal(CompletionRequest{Prompt: "what is the confidence"})
			p.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(body)))
			var reply CompletionResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); rec.Code != http.StatusOK || err != nil || reply.Text != "an answer" || reply.Confidence != 0 {
				t.Fatalf("JSON reply: status %d, body %q (%v); want 200, the answer, confidence 0", rec.Code, rec.Body.Bytes(), err)
			}

			w := newWireWriter()
			<-serveSSE(p, w, CompletionRequest{Prompt: "what is the confidence, streamed"})
			events := readSSE(t, &w.wire)
			if len(events) != 2 || events[0].name != "chunk" || events[1].name != "done" {
				t.Fatalf("events = %+v, want one chunk and done", events)
			}
			var ch Chunk
			var done StreamDone
			if json.Unmarshal([]byte(events[0].data), &ch) != nil || json.Unmarshal([]byte(events[1].data), &done) != nil ||
				ch.Confidence != 0 || done.Confidence != 0 || done.Text != "an answer" || done.CostMicro != 7 {
				t.Fatalf("chunk %+v, done %+v; want confidence 0 and the answer", ch, done)
			}
			if evs, _, _ := p.Events().EventsSince(0, obs.EventFilter{Name: "proxy_complete"}); len(evs) != 2 {
				t.Fatalf("%d proxy_complete events for two answered requests", len(evs))
			}
		})
	}
}

// The wire side does not rely on that: a chunk that cannot be encoded
// ends the stream with the error event and an error terminal — not with
// silence and a cancel — and a JSON reply that cannot be encoded is a 500
// with the envelope.
func TestUnencodableReplyIsAnInternalError(t *testing.T) {
	p, step := steppedProxy(Config{MaxConcurrent: 2})
	s, err := p.openStream(context.Background(), llm.Request{Prompt: "a poisoned log", Gold: "one two", Difficulty: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.c.append(Chunk{Text: "fine ", Model: "small", Confidence: 0.5})
	s.c.append(Chunk{Text: "not fine", Model: "small", Confidence: math.NaN()})
	w := newWireWriter()
	writeEvents(w, s)
	close(step) // the real upstream, untouched by all this, runs out

	events := readSSE(t, &w.wire)
	var body ErrorBody
	if len(events) == 0 || events[len(events)-1].name != "error" || json.Unmarshal([]byte(events[len(events)-1].data), &body) != nil ||
		body.Code != "internal" || body.Retryable {
		t.Fatalf("events = %+v, want to end with an internal error event", events)
	}
	if flushes, _, unflushed := w.seen(); flushes == 0 || unflushed != 0 {
		t.Fatalf("the error event was not flushed: %d flushes, %d bytes left", flushes, unflushed)
	}
	if evs, _, _ := p.Events().EventsSince(0, obs.EventFilter{Name: "proxy_cancel"}); len(evs) != 0 {
		t.Fatalf("%d proxy_cancel events for a client that never left", len(evs))
	}
	terminal, _, _ := p.Events().EventsSince(0, obs.EventFilter{Name: "proxy_error"})
	if len(terminal) != 1 || terminal[0].Attrs["mode"] != "stream" {
		t.Fatalf("proxy_error events = %+v, want one for the stream", terminal)
	}
	if _, err := s.Answer(); !errors.Is(err, errUnencodable) {
		t.Fatalf("Answer after the failed encode = %v", err)
	}
	waitFor(t, func() bool { return p.limiter.Running() == 0 })

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"confidence": math.Inf(1)})
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusInternalServerError || err != nil || env.Error.Code != "internal" {
		t.Fatalf("writeJSON of an unencodable value: status %d, body %q (%v); want the 500 envelope", rec.Code, rec.Body.Bytes(), err)
	}
}

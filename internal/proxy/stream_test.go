package proxy

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/token"
)

// drainStream reads a proxy stream to io.EOF, returning the chunks.
func drainStream(t *testing.T, s Stream) []Chunk {
	t.Helper()
	var chunks []Chunk
	for {
		ch, err := s.Recv()
		if err == io.EOF {
			return chunks
		}
		if err != nil {
			t.Fatalf("Recv after %d chunks: %v", len(chunks), err)
		}
		chunks = append(chunks, ch)
	}
}

// assembleText replays a chunk sequence the way a client would: Restart
// discards previously buffered text.
func assembleText(chunks []Chunk) string {
	var b strings.Builder
	for _, ch := range chunks {
		if ch.Restart {
			b.Reset()
		}
		b.WriteString(ch.Text)
	}
	return b.String()
}

// A streamed completion must be the request/response answer, chunked:
// ordered indexes, byte-identical assembled text, and a chunk-cost sum
// that equals both the settled Answer's cost and what an identical
// non-streamed proxy would have charged.
func TestStreamMatchesComplete(t *testing.T) {
	req := llm.Request{Prompt: "an easy streaming question about the catalog", Gold: "the catalog holds twelve tables", Difficulty: 0.05}

	nonStream := newTestProxy(Config{})
	want, err := nonStream.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	p := newTestProxy(Config{})
	s, err := p.CompleteStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chunks := drainStream(t, s)
	if len(chunks) < 2 {
		t.Fatalf("expected a multi-chunk stream, got %d chunks", len(chunks))
	}
	var sum token.Cost
	for i, ch := range chunks {
		if ch.Index != i {
			t.Fatalf("chunk %d has index %d", i, ch.Index)
		}
		if ch.Final != (i == len(chunks)-1) {
			t.Fatalf("chunk %d Final = %v", i, ch.Final)
		}
		sum += ch.Cost
	}
	ans, err := s.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if got := assembleText(chunks); got != ans.Text || got != want.Text {
		t.Fatalf("assembled %q, answer %q, non-streamed %q", got, ans.Text, want.Text)
	}
	if ans.Source != "cascade" || ans.Trace == "" {
		t.Fatalf("answer = %+v", ans)
	}
	if sum != ans.Cost {
		t.Fatalf("chunk costs sum to %v, answer cost %v", sum, ans.Cost)
	}
	if ans.Cost != want.Cost {
		t.Fatalf("streamed cost %v != non-streamed cost %v", ans.Cost, want.Cost)
	}
	st := p.Stats()
	if st.Streams != 1 || st.Requests != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Spend != ans.Cost {
		t.Fatalf("proxy spend %v != answer cost %v", st.Spend, ans.Cost)
	}

	// The same equivalence across a coalesced cohort, in every pairing
	// of read modes: leader and follower share one upstream run, the
	// follower pays nothing for a byte-identical answer, and a leader
	// that walks away does not take the follower with it.
	for _, leaderStreams := range []bool{false, true} {
		for _, followerStreams := range []bool{false, true} {
			for _, leaderCancels := range []bool{false, true} {
				name := fmt.Sprintf("leader=%s/follower=%s/leaderCancels=%v",
					readMode(leaderStreams), readMode(followerStreams), leaderCancels)
				t.Run(name, func(t *testing.T) {
					testMixedCohort(t, req, want.Text, leaderStreams, followerStreams, leaderCancels)
				})
			}
		}
	}
}

func readMode(streams bool) string {
	if streams {
		return "stream"
	}
	return "complete"
}

// gatedSim holds every upstream call — plain or streamed — at a gate,
// so a test can assemble a cohort on one in-flight call before it runs.
type gatedSim struct {
	*llm.SimModel
	gate chan struct{}
}

func (g gatedSim) hold(ctx context.Context) error {
	select {
	case <-g.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g gatedSim) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if err := g.hold(ctx); err != nil {
		return llm.Response{}, err
	}
	return g.SimModel.Complete(ctx, req)
}

func (g gatedSim) GenerateStream(ctx context.Context, req llm.Request) (llm.Stream, error) {
	if err := g.hold(ctx); err != nil {
		return nil, err
	}
	return g.SimModel.GenerateStream(ctx, req)
}

// served is what one client of a cohort ended up with, whichever way it
// read the answer.
type served struct {
	text   string
	source string
	cost   token.Cost // what the client was charged: answer cost, and for streams also the chunk sum
	err    error
}

// serveAsync runs one client in the background: Complete, or
// CompleteStream drained and reassembled.
func serveAsync(p *Proxy, ctx context.Context, req llm.Request, streams bool) <-chan served {
	out := make(chan served, 1)
	go func() {
		if !streams {
			ans, err := p.Complete(ctx, req)
			out <- served{ans.Text, ans.Source, ans.Cost, err}
			return
		}
		s, err := p.CompleteStream(ctx, req)
		if err != nil {
			out <- served{err: err}
			return
		}
		defer s.Close()
		var chunks []Chunk
		var sum token.Cost
		for {
			ch, err := s.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				out <- served{err: err}
				return
			}
			chunks = append(chunks, ch)
			sum += ch.Cost
		}
		ans, err := s.Answer()
		if err == nil && (assembleText(chunks) != ans.Text || sum != ans.Cost) {
			err = fmt.Errorf("chunks assemble to %q costing %v, answer %q costing %v", assembleText(chunks), sum, ans.Text, ans.Cost)
		}
		out <- served{ans.Text, ans.Source, ans.Cost, err}
	}()
	return out
}

func testMixedCohort(t *testing.T, req llm.Request, wantText string, leaderStreams, followerStreams, leaderCancels bool) {
	reg := obs.NewRegistry()
	sim := llm.NewSim(llm.SimConfig{Name: "small", Capability: 0.3, Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg})
	gate := make(chan struct{})
	p := New(Config{Models: []llm.Model{gatedSim{sim, gate}}, DisableCache: true, MaxConcurrent: 4,
		Obs: reg, Tracer: obs.NewTracer(8)})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leader := serveAsync(p, leaderCtx, req, leaderStreams)
	waitFor(t, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.inflight) == 1
	})
	follower := serveAsync(p, context.Background(), req, followerStreams)
	waitFor(t, func() bool { return p.Stats().Coalesced == 1 })

	if leaderCancels {
		cancelLeader()
		if l := <-leader; l.err != context.Canceled {
			t.Fatalf("canceled leader returned %+v, want context.Canceled", l)
		}
	}
	close(gate)

	f := <-follower
	if f.err != nil {
		t.Fatalf("follower failed: %v", f.err)
	}
	if f.text != wantText || f.source != "coalesced" || f.cost != 0 {
		t.Fatalf("follower = %+v, want %q coalesced at cost 0", f, wantText)
	}
	if !leaderCancels {
		l := <-leader
		if l.err != nil {
			t.Fatalf("leader failed: %v", l.err)
		}
		if l.text != f.text || l.source != "cascade" || l.cost != sim.Meter().Spend {
			t.Fatalf("leader = %+v, want the follower's text from the cascade at the metered cost %v", l, sim.Meter().Spend)
		}
	}
	if calls := sim.Meter().Calls; calls != 1 {
		t.Fatalf("upstream ran %d times for one cohort, want 1", calls)
	}
	if spend := p.Stats().Spend; spend != sim.Meter().Spend {
		t.Fatalf("proxy spend %v != model meter %v", spend, sim.Meter().Spend)
	}
	waitFor(t, func() bool {
		return p.limiter.Running() == 0 && reg.Snapshot()["proxy_inflight"] == 0
	})
}

// End to end through the proxy: a hard request early-exits the cheap
// tier mid-generation, the stream restarts on the strong tier, and the
// cheap model's meter shows strictly less than a full cheap-tier run —
// billing only the chunks that were actually emitted.
func TestStreamEarlyExitBillsLessE2E(t *testing.T) {
	hard := llm.Request{
		Prompt:     "derive the asymptotic join selectivity bound from the histogram",
		Gold:       "the bound follows",
		Wrong:      "the answer could not be determined from the available statistics in the catalog",
		Difficulty: 0.9,
	}
	cheap := llm.NewSim(llm.SimConfig{Name: "cheap", Capability: 0.2, Price: token.Price{InputPer1K: 400, OutputPer1K: 400}})
	strong := llm.NewSim(llm.SimConfig{Name: "strong", Capability: 0.95, Price: token.Price{InputPer1K: 30000, OutputPer1K: 60000}})
	p := New(Config{Models: []llm.Model{cheap, strong}, DisableCache: true}) // ExitThreshold defaults on

	s, err := p.CompleteStream(context.Background(), hard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chunks := drainStream(t, s)
	restarts := 0
	var sum token.Cost
	for _, ch := range chunks {
		if ch.Restart {
			restarts++
			if ch.Model != "strong" || ch.Tier != 1 {
				t.Fatalf("restart chunk from %q tier %d", ch.Model, ch.Tier)
			}
		}
		sum += ch.Cost
	}
	if restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (early exit + escalation)", restarts)
	}
	ans, err := s.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Model != "strong" || ans.Text != hard.Gold {
		t.Fatalf("answer = %+v", ans)
	}
	if sum != ans.Cost {
		t.Fatalf("chunk costs sum to %v, answer cost %v", sum, ans.Cost)
	}

	// The abandoned cheap run must have billed strictly less than a full
	// cheap-tier completion of the same request.
	full := llm.NewSim(llm.SimConfig{Name: "cheap", Capability: 0.2, Price: token.Price{InputPer1K: 400, OutputPer1K: 400}})
	fullResp, err := full.Complete(context.Background(), hard)
	if err != nil {
		t.Fatal(err)
	}
	spent := cheap.Meter().Spend
	if spent == 0 || spent >= fullResp.Cost {
		t.Fatalf("aborted cheap tier billed %v, full run costs %v", spent, fullResp.Cost)
	}
}

// stallAfter is a stream tier that bills its first k chunks and then
// hangs until its context dies — an upstream that stops mid-generation.
type stallAfter struct {
	*llm.SimModel
	k int
}

func (m stallAfter) GenerateStream(ctx context.Context, req llm.Request) (llm.Stream, error) {
	s, err := m.SimModel.GenerateStream(ctx, req)
	if err != nil {
		return nil, err
	}
	return &stalledStream{Stream: s, ctx: ctx, left: m.k}, nil
}

type stalledStream struct {
	llm.Stream
	ctx  context.Context
	left int
}

func (s *stalledStream) Recv() (llm.Chunk, error) {
	if s.left == 0 {
		<-s.ctx.Done()
		return llm.Chunk{}, s.ctx.Err()
	}
	s.left--
	return s.Stream.Recv()
}

// The spend invariant under an upstream timeout mid-stream: the chunks
// the aborted tier billed before the deadline fired are still on the
// proxy's books, so Stats().Spend == Σ model meters == Σ tenants.
func TestStreamUpstreamTimeoutKeepsSpendExact(t *testing.T) {
	reg := obs.NewRegistry()
	sim := llm.NewSim(llm.SimConfig{Name: "cheap", Capability: 0.9, Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg})
	p := New(Config{Models: []llm.Model{stallAfter{sim, 2}}, DisableCache: true,
		UpstreamTimeout: 50 * time.Millisecond, Obs: reg, Tracer: obs.NewTracer(4)})

	s, err := p.CompleteStream(obs.WithTenant(context.Background(), "acme"), llm.Request{
		Prompt: "a question whose answer stalls", Gold: "a long enough answer to stream as several separate chunks", Difficulty: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var sum token.Cost
	delivered := 0
	for {
		ch, err := s.Recv()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Recv after %d chunks: %v, want the upstream deadline", delivered, err)
			}
			break
		}
		delivered++
		sum += ch.Cost
	}
	meter := sim.Meter().Spend
	if delivered != 2 || sum == 0 || sum != meter {
		t.Fatalf("delivered %d chunks costing %v, model meter %v: want exactly the 2 billed chunks", delivered, sum, meter)
	}
	ans, err := s.Answer()
	if !errors.Is(err, context.DeadlineExceeded) || ans.Source != "error" || ans.Cost != meter {
		t.Fatalf("answer = %+v (%v), want error-shaped at cost %v", ans, err, meter)
	}
	st := p.Stats()
	if st.Spend != meter || st.ModelCalls != 1 {
		t.Fatalf("stats = %+v, want spend %v for one attempted step", st, meter)
	}
	var tenants int64
	for _, ts := range p.Tenants().Snapshot(0).Tenants {
		tenants += ts.SpendMicroUSD
	}
	if tenants != int64(meter) {
		t.Fatalf("tenants were attributed %d µ$, model meter %d µ$", tenants, meter)
	}
}

// A leader that closes its stream mid-generation must not disturb the
// coalesced cohort: the follower still receives the full answer, at
// cost 0 because the leader's run paid.
func TestStreamCanceledClientDoesNotPoisonCohort(t *testing.T) {
	gate := make(chan struct{})
	slow := modelFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return llm.Response{}, ctx.Err()
		}
		return llm.Response{Text: "late answer", Model: "func", Confidence: 0.9, Cost: 7}, nil
	})
	p := New(Config{Models: []llm.Model{slow}, DisableCache: true})

	req := llm.Request{Prompt: "shared streamed question", Gold: "g"}
	leader, err := p.CompleteStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the leader's call to register as in-flight so the second
	// stream joins it instead of racing to lead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		n := len(p.inflight)
		p.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never registered in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	follower, err := p.CompleteStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if p.Stats().Coalesced != 1 {
		t.Fatalf("stats = %+v, follower did not coalesce", p.Stats())
	}

	// The leader walks away before a single chunk arrived.
	leader.Close()
	if _, err := leader.Recv(); err != llm.ErrStreamClosed {
		t.Fatalf("Recv after Close = %v", err)
	}
	close(gate)

	chunks := drainStream(t, follower)
	if len(chunks) == 0 {
		t.Fatal("follower starved by leader cancellation")
	}
	for _, ch := range chunks {
		if ch.Cost != 0 {
			t.Fatalf("follower chunk billed: %+v", ch)
		}
	}
	if got := assembleText(chunks); got != "late answer" {
		t.Fatalf("follower assembled %q", got)
	}
	ans, err := follower.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Source != "coalesced" || ans.Cost != 0 {
		t.Fatalf("follower answer = %+v", ans)
	}
}

// Semantic-cache hits stream instantly: one pre-paid Final chunk at
// cost 0.
func TestStreamCacheHitSingleChunk(t *testing.T) {
	p := newTestProxy(Config{})
	req := llm.Request{Prompt: "a cached streaming question", Gold: "cached answer text", Difficulty: 0.1}
	if _, err := p.Complete(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	s, err := p.CompleteStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	chunks := drainStream(t, s)
	if len(chunks) != 1 || !chunks[0].Final || chunks[0].Model != "cache" || chunks[0].Cost != 0 {
		t.Fatalf("cache stream chunks = %+v", chunks)
	}
	ans, err := s.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Source != "cache" || ans.Cost != 0 || ans.Text != chunks[0].Text {
		t.Fatalf("answer = %+v", ans)
	}
	if p.Stats().CacheHits != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

// --- SSE surface ---

type sseEvent struct {
	name string
	data string
}

// readSSE parses a text/event-stream body into (event, data) pairs.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE body: %v", err)
	}
	return events
}

// POST /v1/complete with "stream": true serves ordered chunk events and
// a terminal done event whose cost equals the non-streamed response for
// the same request.
func TestHTTPStreamSSE(t *testing.T) {
	req := CompletionRequest{Prompt: "an SSE question about partition pruning", Gold: "prune by range metadata first", Difficulty: 0.1}

	nonStream := newTestProxy(Config{})
	nsrv := httptest.NewServer(nonStream.Handler())
	defer nsrv.Close()
	nresp := postJSON(t, nsrv, "/v1/complete", req)
	defer nresp.Body.Close()
	var want CompletionResponse
	if err := json.NewDecoder(nresp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}

	p := newTestProxy(Config{})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	req.Stream = true
	resp := postJSON(t, srv, "/v1/complete", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("events = %+v", events)
	}
	var (
		chunks []Chunk
		done   StreamDone
	)
	for i, ev := range events {
		switch ev.name {
		case "chunk":
			var ch Chunk
			if err := json.Unmarshal([]byte(ev.data), &ch); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
			chunks = append(chunks, ch)
		case "done":
			if i != len(events)-1 {
				t.Fatalf("done event at %d of %d", i, len(events))
			}
			if err := json.Unmarshal([]byte(ev.data), &done); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected event %q", ev.name)
		}
	}
	for i, ch := range chunks {
		if ch.Index != i {
			t.Fatalf("chunk %d has index %d", i, ch.Index)
		}
	}
	if got := assembleText(chunks); got != done.Text || got != want.Text {
		t.Fatalf("assembled %q, done %q, non-streamed %q", got, done.Text, want.Text)
	}
	if done.CostMicro != want.CostMicro {
		t.Fatalf("streamed cost %d != non-streamed cost %d", done.CostMicro, want.CostMicro)
	}
	if done.Chunks != len(chunks) || done.Source != "cascade" || done.TraceID == "" {
		t.Fatalf("done = %+v", done)
	}
}

// An SSE client that disconnects mid-stream must not fail a coalesced
// non-streamed waiter on the same prompt.
func TestHTTPStreamClientDisconnect(t *testing.T) {
	gate := make(chan struct{})
	slow := modelFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return llm.Response{}, ctx.Err()
		}
		return llm.Response{Text: "survived", Model: "func", Confidence: 0.9}, nil
	})
	p := New(Config{Models: []llm.Model{slow}, DisableCache: true})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body, _ := json.Marshal(CompletionRequest{Prompt: "shared disconnect prompt", Gold: "g", Stream: true})
	hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/complete", bytes.NewReader(body))
	ctx, cancel := context.WithCancel(context.Background())
	hreq = hreq.WithContext(ctx)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the streamed leader is in flight, then join it with a
	// non-streamed request and kill the SSE client.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		n := len(p.inflight)
		p.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never registered in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	type result struct {
		ans Answer
		err error
	}
	res := make(chan result, 1)
	go func() {
		ans, err := p.Complete(context.Background(), llm.Request{Prompt: "shared disconnect prompt", Gold: "g"})
		res <- result{ans, err}
	}()
	cancel()
	resp.Body.Close()
	close(gate)
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatalf("coalesced waiter failed after SSE disconnect: %v", r.err)
		}
		if r.ans.Text != "survived" {
			t.Fatalf("coalesced waiter answer = %+v", r.ans)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coalesced waiter hung after SSE disconnect")
	}
}

// --- unified error envelope ---

// Every non-200 response is an ErrorEnvelope with a stable code; the
// envelope's schema is locked by a golden file like the other payloads.
func TestHTTPErrorEnvelope(t *testing.T) {
	p := newTestProxy(Config{DisableSLO: true})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
		code   string
	}{
		{"method", func() (*http.Response, error) { return http.Get(srv.URL + "/v1/complete") }, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"bad_json", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/complete", "application/json", strings.NewReader("{"))
		}, http.StatusBadRequest, "bad_request"},
		{"oversize", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/complete", "application/json",
				strings.NewReader(`{"prompt":"`+strings.Repeat("p", maxRequestBytes)+`"}`))
		}, http.StatusRequestEntityTooLarge, "bad_request"},
		{"over-long prompt", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/complete", "application/json",
				strings.NewReader(`{"prompt":"`+strings.Repeat("p", maxPromptBytes+1)+`"}`))
		}, http.StatusRequestEntityTooLarge, "bad_request"},
		{"empty_prompt", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/complete", "application/json", strings.NewReader("{}"))
		}, http.StatusBadRequest, "bad_request"},
		{"bad_priority", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/complete", "application/json",
				strings.NewReader(`{"prompt":"p","priority":"warp"}`))
		}, http.StatusBadRequest, "bad_request"},
		{"disabled", func() (*http.Response, error) { return http.Get(srv.URL + "/v1/slo") }, http.StatusNotFound, "disabled"},
		{"bad_query", func() (*http.Response, error) { return http.Get(srv.URL + "/v1/tenants?n=-1") }, http.StatusBadRequest, "bad_request"},
		{"stats_method", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
		}, http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	var sample interface{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
			var env ErrorEnvelope
			var raw json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
				t.Fatalf("non-JSON error body: %v", err)
			}
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.code || env.Error.Message == "" {
				t.Fatalf("envelope = %+v", env)
			}
			if sample == nil {
				json.Unmarshal(raw, &sample)
			}
		})
	}

	// Golden: the envelope shape is API, like the /v1/* payloads.
	got := strings.Join(schemaPaths(sample), "\n") + "\n"
	golden := filepath.Join("testdata", "golden", "error.schema")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("error envelope schema drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// A shed streamed request surfaces through CompleteStream as an error,
// and over SSE as a plain HTTP 503 envelope (the stream never opened).
func TestHTTPStreamShedEnvelope(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	slow := modelFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return llm.Response{Text: "g"}, nil
	})
	p := New(Config{Models: []llm.Model{slow}, DisableCache: true, MaxConcurrent: 1, MaxQueue: 0})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	s, err := p.CompleteStream(context.Background(), llm.Request{Prompt: "hold the slot", Gold: "g"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp := postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: "shed me", Gold: "g", Stream: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After on shed")
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "overloaded" || !env.Error.Retryable {
		t.Fatalf("envelope = %+v", env)
	}
}

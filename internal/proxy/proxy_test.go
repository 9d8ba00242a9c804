package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/token"
	"repro/internal/workload"
)

// newTestProxy builds a proxy on the wall clock, over two simulated tiers
// when cfg names no models.
func newTestProxy(cfg Config) *Proxy { return testProxyOn(cfg, time.Now) }

// testProxyOn is newTestProxy on the clock now.
func testProxyOn(cfg Config, now func() time.Time) *Proxy {
	if len(cfg.Models) == 0 {
		// The models meter into the same registry as the proxy so tests
		// with a private registry see the whole stack's metrics.
		cfg.Models = []llm.Model{
			llm.NewSim(llm.SimConfig{Name: "small", Capability: 0.3, Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: cfg.Obs}),
			llm.NewSim(llm.SimConfig{Name: "large", Capability: 0.95, Price: token.Price{InputPer1K: 30000, OutputPer1K: 60000}, Obs: cfg.Obs}),
		}
	}
	return newProxy(cfg, now)
}

// frozenClock is a proxy clock that never moves.
func frozenClock() time.Time { return time.Unix(1000, 0) }

// fakeClock is a hand-advanced proxy clock: every time decision of a
// proxy built on its Now moves only when the test advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestCompleteBasic(t *testing.T) {
	p := newTestProxy(Config{})
	ans, err := p.Complete(context.Background(), llm.Request{
		Prompt: "an easy labeling question", Gold: "yes", Difficulty: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "yes" || ans.Source != "cascade" {
		t.Errorf("answer = %+v", ans)
	}
	st := p.Stats()
	if st.Requests != 1 || st.ModelCalls == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheHitSecondTime(t *testing.T) {
	p := newTestProxy(Config{})
	req := llm.Request{Prompt: "what is the capital of Florin", Gold: "Esbjerg", Difficulty: 0.2}
	first, err := p.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "cache" || second.Text != first.Text || second.Cost != 0 {
		t.Errorf("second = %+v", second)
	}
	if p.Stats().CacheHits != 1 {
		t.Errorf("cache hits = %d", p.Stats().CacheHits)
	}
}

func TestDisableCache(t *testing.T) {
	p := newTestProxy(Config{DisableCache: true})
	req := llm.Request{Prompt: "repeatable", Gold: "g", Difficulty: 0.2}
	p.Complete(context.Background(), req)
	second, _ := p.Complete(context.Background(), req)
	if second.Source == "cache" {
		t.Error("cache served despite being disabled")
	}
}

// TestConcurrentIdenticalCoalesce runs n identical requests through the
// default two-tier cascade with its first tier gated shut until every
// request has either led the call or joined it, so the overlap does not
// depend on scheduling.
func TestConcurrentIdenticalCoalesce(t *testing.T) {
	gate := make(chan struct{})
	p := newTestProxy(Config{DisableCache: true, // isolate coalescing
		Models: []llm.Model{
			gatedSim{llm.NewSim(llm.SimConfig{Name: "small", Capability: 0.3, Price: token.Price{InputPer1K: 400, OutputPer1K: 400}}), gate},
			llm.NewSim(llm.SimConfig{Name: "large", Capability: 0.95, Price: token.Price{InputPer1K: 30000, OutputPer1K: 60000}}),
		}})
	req := llm.Request{Prompt: "identical concurrent question", Gold: "g", Difficulty: 0.2}
	const n = 16
	var wg sync.WaitGroup
	answers := make([]Answer, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, err := p.Complete(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			answers[i] = ans
		}(i)
	}
	waitFor(t, func() bool { return p.Stats().Coalesced == n-1 })
	close(gate)
	wg.Wait()
	for i := 1; i < n; i++ {
		if answers[i].Text != answers[0].Text {
			t.Fatal("coalesced answers differ")
		}
	}
	st := p.Stats()
	// Every goroutine but the leader joined the in-flight call, and the
	// upstream ran one cascade, not n.
	if st.Coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
	if st.ModelCalls > 2 {
		t.Errorf("model calls %d too high for %d coalescible requests", st.ModelCalls, n)
	}
}

func TestProxySavesMoneyOnRepeatedWorkload(t *testing.T) {
	// The headline claim: cache + cascade beats always-call-the-big-model.
	set := workload.GenQA(5, 30)
	p := newTestProxy(Config{})
	for round := 0; round < 2; round++ {
		for _, it := range set.Items {
			_, err := p.Complete(context.Background(), llm.Request{
				Prompt: "Context: " + it.ContextFor() + "\nQ: " + it.Question,
				Gold:   it.Answer, Wrong: it.Distractor, Difficulty: it.Difficulty,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	st := p.Stats()
	if st.CacheHits < 25 {
		t.Errorf("round 2 should hit cache: %d hits", st.CacheHits)
	}

	// Baseline: big model for every occurrence.
	big := llm.NewSim(llm.SimConfig{Name: "big-base", Capability: 0.95, Price: token.Price{InputPer1K: 30000, OutputPer1K: 60000}})
	var baseline token.Cost
	for round := 0; round < 2; round++ {
		for _, it := range set.Items {
			r, _ := big.Complete(context.Background(), llm.Request{
				Prompt: "Context: " + it.ContextFor() + "\nQ: " + it.Question,
				Gold:   it.Answer, Wrong: it.Distractor, Difficulty: it.Difficulty,
			})
			baseline += r.Cost
		}
	}
	if st.Spend >= baseline/2 {
		t.Errorf("proxy spend %v not well below big-model baseline %v", st.Spend, baseline)
	}
}

// --- HTTP layer ---

func postJSON(t *testing.T, srv *httptest.Server, path string, body interface{}) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPComplete(t *testing.T) {
	p := newTestProxy(Config{})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/complete", CompletionRequest{
		Prompt: "label this row", Gold: "retail", Difficulty: 0.1,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out CompletionResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Text != "retail" || out.Source != "cascade" {
		t.Errorf("response = %+v", out)
	}
}

func TestHTTPValidation(t *testing.T) {
	p := newTestProxy(Config{})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// Missing prompt.
	resp := postJSON(t, srv, "/v1/complete", CompletionRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty prompt status = %d", resp.StatusCode)
	}
	// Bad JSON.
	r2, err := http.Post(srv.URL+"/v1/complete", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status = %d", r2.StatusCode)
	}
	// Wrong method.
	r3, err := http.Get(srv.URL + "/v1/complete")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", r3.StatusCode)
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	p := newTestProxy(Config{})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: "q", Gold: "a"}).Body.Close()

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["requests"].(float64) != 1 {
		t.Errorf("stats = %v", st)
	}

	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Errorf("health = %d", h.StatusCode)
	}
}

func BenchmarkProxyCached(b *testing.B) {
	p := newTestProxy(Config{})
	req := llm.Request{Prompt: "a frequently repeated analytics question", Gold: "g", Difficulty: 0.2}
	p.Complete(context.Background(), req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Complete(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProxyUncached(b *testing.B) {
	p := newTestProxy(Config{DisableCache: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := llm.Request{Prompt: fmt.Sprintf("unique question %d", i), Gold: "g", Difficulty: 0.2}
		if _, err := p.Complete(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUpstreamErrorPropagatesAndClearsInflight(t *testing.T) {
	// An always-failing upstream: errors must reach callers and must not
	// wedge the in-flight table.
	fail := llm.NewFlaky(llm.NewSim(llm.SimConfig{Name: "f", Capability: 0.9,
		Price: token.Price{InputPer1K: 1000, OutputPer1K: 1000}}), 1.0)
	p := New(Config{Models: []llm.Model{fail}})
	if _, err := p.Complete(context.Background(), llm.Request{Prompt: "doomed", Gold: "g"}); err == nil {
		t.Fatal("upstream failure swallowed")
	}
	// The same prompt must be retryable (not stuck as in-flight).
	if _, err := p.Complete(context.Background(), llm.Request{Prompt: "doomed", Gold: "g"}); err == nil {
		t.Fatal("second attempt swallowed")
	}
	st := p.Stats()
	if st.Requests != 2 {
		t.Errorf("requests = %d", st.Requests)
	}
	if st.Spend != 0 {
		t.Errorf("failed calls were billed: %v", st.Spend)
	}
}

func TestProxyWithRetryLayerRecovers(t *testing.T) {
	// Production stack: proxy -> retry -> flaky upstream.
	flaky := llm.NewFlaky(llm.NewSim(llm.SimConfig{Name: "r", Capability: 0.9,
		Price: token.Price{InputPer1K: 1000, OutputPer1K: 1000}}), 0.5)
	p := New(Config{Models: []llm.Model{&llm.Retry{Inner: flaky, Attempts: 10}}})
	ok := 0
	for i := 0; i < 50; i++ {
		ans, err := p.Complete(context.Background(), llm.Request{
			Prompt: fmt.Sprintf("flaky question %d", i), Gold: "g", Difficulty: 0.2,
		})
		if err == nil && ans.Text == "g" {
			ok++
		}
	}
	if ok < 48 {
		t.Errorf("only %d/50 recovered through the retry layer", ok)
	}
}

func TestCoalescedWaiterHonorsContext(t *testing.T) {
	// A waiter whose context dies while coalesced must return promptly.
	slowGate := make(chan struct{})
	slow := modelFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		<-slowGate
		return llm.Response{Text: "late"}, nil
	})
	p := New(Config{Models: []llm.Model{slow}, DisableCache: true})

	started := make(chan struct{})
	go func() {
		close(started)
		p.Complete(context.Background(), llm.Request{Prompt: "shared", Gold: "g"})
	}()
	<-started
	// Give the first caller a moment to register as in-flight.
	for i := 0; i < 100; i++ {
		p.mu.Lock()
		n := len(p.inflight)
		p.mu.Unlock()
		if n == 1 {
			break
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Complete(ctx, llm.Request{Prompt: "shared", Gold: "g"})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		// Either the waiter was coalesced and returned ctx.Err(), or it won
		// the race and became a (blocked) first caller — in that case the
		// gate below unblocks it and err is nil. Both are acceptable; what
		// is not acceptable is hanging.
		_ = err
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter did not return")
	}
	close(slowGate)
}

// modelFunc adapts a function to llm.Model for test doubles.
type modelFunc func(ctx context.Context, req llm.Request) (llm.Response, error)

func (f modelFunc) Name() string { return "func" }
func (f modelFunc) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return f(ctx, req)
}

// A cascade answer is in the cache, and its call out of the in-flight
// table, before the client has it: the exact repeat that follows is a
// cache hit at cost 0, never a coalesced follower, and proxy_inflight
// reads 0 in between — in both read modes.
func TestAnsweredMissIsCachedAndDrained(t *testing.T) {
	for _, streamed := range []bool{false, true} {
		reg := obs.NewRegistry()
		p := newTestProxy(Config{Obs: reg})
		for i := 0; i < 50; i++ {
			req := llm.Request{Prompt: distinctPrompt(i), Gold: "yes", Difficulty: 0.05}
			ans, err := probe(p, context.Background(), req, streamed)
			if err != nil || ans.Source != "cascade" {
				t.Fatalf("%s %d: %+v, %v; want a cascade answer", readMode(streamed), i, ans, err)
			}
			if n := reg.Snapshot()["proxy_inflight"]; n != 0 {
				t.Fatalf("%s %d: proxy_inflight = %v after the answer, want 0", readMode(streamed), i, n)
			}
			again, err := probe(p, context.Background(), req, streamed)
			if err != nil || again.Source != "cache" || again.Cost != 0 {
				t.Fatalf("%s %d: the exact repeat = %+v, %v; want a cache hit at cost 0", readMode(streamed), i, again, err)
			}
		}
		if st := p.Stats(); st.Coalesced != 0 || st.CacheHits != 50 {
			t.Errorf("%s: stats %+v; want 50 cache hits and nothing coalesced", readMode(streamed), st)
		}
	}
}

// distinctPrompt returns the i-th of a pool of prompts of seeded random
// words: no two are near enough for a semantic hit.
func distinctPrompt(i int) string {
	r := rand.New(rand.NewSource(int64(i)))
	words := make([]string, 9)
	for w := range words {
		b := make([]byte, 4+r.Intn(5))
		for j := range b {
			b[j] = byte('a' + r.Intn(26))
		}
		words[w] = string(b)
	}
	return strings.Join(words, " ")
}

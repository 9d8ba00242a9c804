package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/semcache"
	"repro/internal/llm"
	"repro/internal/obs"
)

// waitFor polls cond up to ~2s; the deterministic-coalescing tests use it
// to sequence goroutines on observable proxy state instead of sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// TestConcurrentIdenticalExactlyOneUpstream proves the coalescing
// invariant deterministically: the upstream is gated shut until all N
// requests have either become the leader or registered as waiters, so the
// upstream must be called exactly once and every other caller must be
// served a coalesced answer.
func TestConcurrentIdenticalExactlyOneUpstream(t *testing.T) {
	var upstreamCalls atomic.Int64
	gate := make(chan struct{})
	gated := modelFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		upstreamCalls.Add(1)
		<-gate
		return llm.Response{Text: "g", Confidence: 0.99, Model: "gated"}, nil
	})
	p := New(Config{Models: []llm.Model{gated}, DisableCache: true,
		Obs: obs.NewRegistry(), Tracer: obs.NewTracer(4)})

	const n = 12
	req := llm.Request{Prompt: "identical concurrent question", Gold: "g"}
	var wg sync.WaitGroup
	answers := make([]Answer, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = p.Complete(context.Background(), req)
		}(i)
	}
	// All N are in: one leader blocked in the upstream, n-1 coalesced.
	waitFor(t, func() bool { return p.Stats().Coalesced == n-1 && upstreamCalls.Load() == 1 })
	close(gate)
	wg.Wait()

	if got := upstreamCalls.Load(); got != 1 {
		t.Fatalf("upstream calls = %d, want exactly 1", got)
	}
	var cascadeN, coalescedN int
	for i := range answers {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if answers[i].Text != "g" {
			t.Fatalf("request %d answer = %q", i, answers[i].Text)
		}
		switch answers[i].Source {
		case "cascade":
			cascadeN++
		case "coalesced":
			coalescedN++
			if answers[i].Cost != 0 {
				t.Errorf("coalesced answer %d billed cost %v", i, answers[i].Cost)
			}
		default:
			t.Errorf("request %d has source %q", i, answers[i].Source)
		}
	}
	if cascadeN != 1 || coalescedN != n-1 {
		t.Errorf("sources: cascade=%d coalesced=%d, want 1 and %d", cascadeN, coalescedN, n-1)
	}
}

// TestCoalesceKeysOnEveryAnswerShapingField: two concurrent requests
// with one prompt but different gold each lead their own upstream run
// and each get their own gold; a third, identical to the first, still
// joins the first's run.
func TestCoalesceKeysOnEveryAnswerShapingField(t *testing.T) {
	var upstreamCalls atomic.Int64
	gate := make(chan struct{})
	gated := modelFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		upstreamCalls.Add(1)
		<-gate
		return llm.Response{Text: req.Gold, Confidence: 0.99, Model: "gated"}, nil
	})
	p := New(Config{Models: []llm.Model{gated}, DisableCache: true,
		Obs: obs.NewRegistry(), Tracer: obs.NewTracer(4)})

	reqs := []llm.Request{
		{Prompt: "one prompt, two golds", Gold: "Kyoto"},
		{Prompt: "one prompt, two golds", Gold: "Osaka"},
		{Prompt: "one prompt, two golds", Gold: "Kyoto"},
	}
	answers := make([]Answer, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = p.Complete(context.Background(), reqs[i])
		}(i)
		// Each request is in — leading a run or joined to one — before
		// the next starts, so the order of arrival is the slice's.
		waitFor(t, func() bool { return upstreamCalls.Load()+p.Stats().Coalesced == int64(i+1) })
	}
	close(gate)
	wg.Wait()

	want := []struct{ text, source string }{{"Kyoto", "cascade"}, {"Osaka", "cascade"}, {"Kyoto", "coalesced"}}
	for i, w := range want {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if answers[i].Text != w.text || answers[i].Source != w.source {
			t.Errorf("request %d (gold %q) got %q from %q, want %q from %q", i, reqs[i].Gold, answers[i].Text, answers[i].Source, w.text, w.source)
		}
	}
	if got, coalesced := upstreamCalls.Load(), p.Stats().Coalesced; got != 2 || coalesced != 1 {
		t.Errorf("upstream runs = %d, coalesced = %d; want 2 and 1", got, coalesced)
	}
}

// TestCallKeyDistinguishesEachField: a change to any one answer-shaping
// field makes a different call key, and the wrong-alternatives list
// cannot collide with another split of the same bytes.
func TestCallKeyDistinguishesEachField(t *testing.T) {
	base := llm.Request{Task: "qa", Prompt: "p", Gold: "g", Wrong: "w", WrongAlts: []string{"a", "b"}, Difficulty: 0.5, NoiseKey: "n"}
	variants := map[string]func(r *llm.Request){
		"task":       func(r *llm.Request) { r.Task = "sql" },
		"prompt":     func(r *llm.Request) { r.Prompt = "q" },
		"gold":       func(r *llm.Request) { r.Gold = "h" },
		"wrong":      func(r *llm.Request) { r.Wrong = "x" },
		"wrong_alts": func(r *llm.Request) { r.WrongAlts = []string{"a,b"} },
		"alts split": func(r *llm.Request) { r.WrongAlts = []string{"ab"} },
		"no alts":    func(r *llm.Request) { r.WrongAlts = nil },
		"difficulty": func(r *llm.Request) { r.Difficulty = 0.6 },
		"noise_key":  func(r *llm.Request) { r.NoiseKey = "m" },
	}
	k := keyOf(base)
	if keyOf(base) != k {
		t.Fatal("one request made two keys")
	}
	for name, change := range variants {
		r := base
		change(&r)
		if keyOf(r) == k {
			t.Errorf("changing %s left the call key as it was", name)
		}
	}
}

// TestCoalescedWaiterCancelDeterministic joins a waiter onto a gated
// in-flight call, cancels the waiter's context, and requires it to return
// ctx.Err() while the leader is still blocked upstream.
func TestCoalescedWaiterCancelDeterministic(t *testing.T) {
	gate := make(chan struct{})
	gated := modelFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		<-gate
		return llm.Response{Text: "late", Confidence: 0.99}, nil
	})
	p := New(Config{Models: []llm.Model{gated}, DisableCache: true,
		Obs: obs.NewRegistry(), Tracer: obs.NewTracer(4)})

	req := llm.Request{Prompt: "shared", Gold: "g"}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		p.Complete(context.Background(), req)
	}()
	// The leader is registered once the in-flight table is non-empty.
	waitFor(t, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.inflight) == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := p.Complete(ctx, req)
		waiterErr <- err
	}()
	// The waiter has joined once the coalesced counter ticks.
	waitFor(t, func() bool { return p.Stats().Coalesced == 1 })
	cancel()
	select {
	case err := <-waiterErr:
		if err != context.Canceled {
			t.Errorf("waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not return while leader was in flight")
	}
	close(gate)
	<-leaderDone
}

// TestHTTPCompleteWrongAltsNoiseKey verifies the HTTP surface plumbs
// WrongAlts and NoiseKey through to the llm.Request (they were previously
// dropped, so self-consistency-style requests could not be expressed).
func TestHTTPCompleteWrongAltsNoiseKey(t *testing.T) {
	var mu sync.Mutex
	var got llm.Request
	capture := modelFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		mu.Lock()
		got = req
		mu.Unlock()
		return llm.Response{Text: req.Gold, Confidence: 0.99, Model: "capture"}, nil
	})
	p := New(Config{Models: []llm.Model{capture}, DisableCache: true,
		Obs: obs.NewRegistry(), Tracer: obs.NewTracer(4)})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/complete", CompletionRequest{
		Prompt:    "vote on this",
		Gold:      "a",
		Wrong:     "b",
		WrongAlts: []string{"c", "d"},
		NoiseKey:  "core-question",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got.WrongAlts) != 2 || got.WrongAlts[0] != "c" || got.WrongAlts[1] != "d" {
		t.Errorf("WrongAlts = %v, want [c d]", got.WrongAlts)
	}
	if got.NoiseKey != "core-question" {
		t.Errorf("NoiseKey = %q, want core-question", got.NoiseKey)
	}
}

// TestMetricsEndpoint drives a workload through the proxy and checks the
// Prometheus exposition covers every layer: per-model counters, proxy
// latency, cache counters, cascade counters.
func TestMetricsEndpoint(t *testing.T) {
	p := newTestProxy(Config{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(8)})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	req := llm.Request{Prompt: "metrics workload question", Gold: "a", Difficulty: 0.2}
	if _, err := p.Complete(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Complete(context.Background(), req); err != nil { // cache hit
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`llm_calls_total{model="small"}`,
		`llm_tokens_total{direction="input",model="small"}`,
		`llm_cost_microusd_total{model="small"}`,
		"# TYPE llm_latency_seconds histogram",
		"# TYPE proxy_latency_seconds histogram",
		`proxy_requests_total{source="cascade"} 1`,
		`proxy_requests_total{source="cache"} 1`,
		"semcache_lookups_total 2",
		`semcache_hits_total{kind="exact"} 1`,
		"semcache_misses_total 1",
		"semcache_puts_total 1",
		"# TYPE cascade_steps_total counter",
		"# TYPE cascade_escalations_total counter",
		"cascade_requests_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The JSON exposition serves the same registry.
	jr, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var parsed map[string]json.RawMessage
	if err := json.NewDecoder(jr.Body).Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	if _, ok := parsed["proxy_requests_total"]; !ok {
		t.Error("json exposition missing proxy_requests_total")
	}
}

// TestDebugTracesEndpoint completes a request and checks /debug/traces
// returns its span tree: a proxy.complete root with cache-lookup and
// cascade-step children carrying durations and model attrs.
func TestDebugTracesEndpoint(t *testing.T) {
	p := newTestProxy(Config{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(8)})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// Difficulty 0.9 forces the cascade to escalate past the small model,
	// so the trace must contain at least two cascade.step children.
	if _, err := p.Complete(context.Background(), llm.Request{
		Prompt: "trace me", Gold: "g", Difficulty: 0.9,
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Traces []obs.SpanData `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(out.Traces))
	}
	root := out.Traces[0]
	if root.Name != "proxy.complete" || root.Attrs["source"] != "cascade" {
		t.Errorf("root = %+v", root)
	}
	var sawLookup bool
	var steps []obs.SpanData
	for _, c := range root.Children {
		switch c.Name {
		case "cache.lookup":
			sawLookup = true
			if c.Attrs["hit"] != "false" {
				t.Errorf("cache.lookup attrs = %v", c.Attrs)
			}
		case "cascade.step":
			steps = append(steps, c)
		}
	}
	if !sawLookup {
		t.Error("trace has no cache.lookup child")
	}
	if len(steps) < 2 {
		t.Fatalf("trace has %d cascade.step children, want >= 2 (escalation)", len(steps))
	}
	if steps[0].Attrs["model"] != "small" || steps[0].Attrs["outcome"] != "reject" {
		t.Errorf("step 0 = %+v", steps[0])
	}
	last := steps[len(steps)-1]
	if last.Attrs["outcome"] != "accept" {
		t.Errorf("last step = %+v", last)
	}
	if len(last.Children) != 1 || last.Children[0].Name != "llm.complete" {
		t.Errorf("step children = %+v", last.Children)
	}

	// ?n=0 and ?n=1 both work; garbage n is a 400.
	if r2, _ := http.Get(srv.URL + "/debug/traces?n=1"); r2 != nil {
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Errorf("?n=1 status = %d", r2.StatusCode)
		}
	}
	if r3, _ := http.Get(srv.URL + "/debug/traces?n=x"); r3 != nil {
		r3.Body.Close()
		if r3.StatusCode != http.StatusBadRequest {
			t.Errorf("?n=x status = %d", r3.StatusCode)
		}
	}
}

// BenchmarkProxyComplete is the throughput baseline for future perf PRs:
// a parallel mixed workload (80% repeated prompts that hit the semantic
// cache after warmup, 20% unique prompts that run the cascade). Run with
// -race in CI to prove the serving path is race-clean under parallelism.
func BenchmarkProxyComplete(b *testing.B) {
	p := newTestProxy(Config{Obs: obs.NewRegistry(), Tracer: obs.NewTracer(obs.DefaultTraceCapacity)})
	// Warm the cache with the repeated prompts.
	for i := 0; i < 8; i++ {
		req := llm.Request{Prompt: fmt.Sprintf("hot question %d", i), Gold: "g", Difficulty: 0.2}
		if _, err := p.Complete(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			var req llm.Request
			if i%5 == 4 {
				req = llm.Request{Prompt: fmt.Sprintf("cold question %d-%d", i, time.Now().UnixNano()), Gold: "g", Difficulty: 0.2}
			} else {
				req = llm.Request{Prompt: fmt.Sprintf("hot question %d", i%8), Gold: "g", Difficulty: 0.2}
			}
			if _, err := p.Complete(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// A repeated paraphrase is a semantic hit from the cache's memo: its
// cache.lookup span says memo=true where the first, scanned one says
// false, and semcache_memo_hits_total counts it inside the semantic hits.
func TestMemoHitOnTheLookupSpan(t *testing.T) {
	reg := obs.NewRegistry()
	p := telemetryProxy(Config{Obs: reg})
	const prompt = "how many concerts were held in the stadium this year"
	p.cache.Put(prompt, "twelve", semcache.Original, semcache.Reuse)
	for i := 0; i < 2; i++ {
		ans, err := p.Complete(context.Background(), llm.Request{Prompt: prompt + "?", Gold: "twelve", Difficulty: 0.05})
		if err != nil || ans.Source != "cache" {
			t.Fatalf("paraphrase %d = %+v, %v; want a cache hit", i+1, ans, err)
		}
	}
	var memo []string
	for _, tr := range p.Tracer().Recent(0) { // newest first
		for _, c := range tr.Children {
			if c.Name == "cache.lookup" {
				if c.Attrs["exact"] != "false" {
					t.Errorf("cache.lookup attrs = %v", c.Attrs)
				}
				memo = append(memo, c.Attrs["memo"])
			}
		}
	}
	if !reflect.DeepEqual(memo, []string{"true", "false"}) {
		t.Errorf("memo attrs, newest first: %v; want [true false]", memo)
	}
	snap := reg.Snapshot()
	if snap["semcache_memo_hits_total"] != 1 || snap[`semcache_hits_total{kind="semantic"}`] != 2 {
		t.Errorf("memo hits %v, semantic hits %v; want 1 and 2", snap["semcache_memo_hits_total"], snap[`semcache_hits_total{kind="semantic"}`])
	}
}

package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/token"
	"repro/internal/workload"
)

// namedModel gives a test double a distinct model name (modelFunc is fixed
// at "func"), so per-model breakers and metrics are addressable.
type namedModel struct {
	name string
	fn   modelFunc
}

func (m namedModel) Name() string { return m.name }
func (m namedModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return m.fn(ctx, req)
}

// TestLeaderCancelDoesNotPoisonCohort is the headline regression test for
// the coalescing bug: the first caller of a prompt (the leader, whose
// context used to drive the upstream call) cancels mid-cascade, and every
// coalesced waiter must still receive the real answer because the upstream
// run is detached from the leader.
func TestLeaderCancelDoesNotPoisonCohort(t *testing.T) {
	gate := make(chan struct{})
	gated := namedModel{name: "gated", fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		select {
		case <-gate:
			return llm.Response{Text: "g", Model: "gated", Confidence: 0.9}, nil
		case <-ctx.Done():
			return llm.Response{}, ctx.Err()
		}
	}}
	p := New(Config{Models: []llm.Model{gated}, DisableCache: true,
		Obs: obs.NewRegistry(), Tracer: obs.NewTracer(8)})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := p.Complete(leaderCtx, llm.Request{Prompt: "shared", Gold: "g"})
		leaderDone <- err
	}()
	waitFor(t, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.inflight) == 1
	})

	const n = 8
	type result struct {
		ans Answer
		err error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			ans, err := p.Complete(context.Background(), llm.Request{Prompt: "shared", Gold: "g"})
			results <- result{ans, err}
		}()
	}
	waitFor(t, func() bool { return p.Stats().Coalesced == n })

	// Cancel the leader while the model is still blocked. The leader must
	// return promptly with its own context error...
	cancelLeader()
	select {
	case err := <-leaderDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("leader error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled leader did not return")
	}

	// ...and the upstream call must still be alive for the cohort.
	close(gate)
	for i := 0; i < n; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("waiter failed after leader cancel: %v", r.err)
			}
			if r.ans.Text != "g" || r.ans.Source != "coalesced" {
				t.Errorf("waiter answer = %+v", r.ans)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never received the answer")
		}
	}
}

// TestErrorPathAccountingAndShape pins the two error-path satellites: a
// failed cascade still bills the attempted tiers into the proxy's spend,
// and the returned Answer is error-shaped (no model, no text) rather than
// a success-shaped zero value.
func TestErrorPathAccountingAndShape(t *testing.T) {
	reg := obs.NewRegistry()
	small := llm.NewSim(llm.SimConfig{Name: "small", Capability: 0.2,
		Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg})
	dead := namedModel{name: "dead", fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{}, llm.ErrTransient
	}}
	p := New(Config{Models: []llm.Model{small, dead}, Obs: reg, Tracer: obs.NewTracer(4),
		DisableCache: true, DisableBreaker: true})

	ans, err := p.Complete(context.Background(), llm.Request{
		Prompt: "a hard question the small tier rejects", Gold: "g", Wrong: "w", Difficulty: 0.6,
	})
	if err == nil {
		t.Fatal("cascade failure swallowed")
	}
	if ans.Source != "error" || ans.Model != "" || ans.Text != "" {
		t.Errorf("error answer not error-shaped: %+v", ans)
	}

	want := small.Meter().Spend
	if want == 0 {
		t.Fatal("small tier was never consulted; the scenario is broken")
	}
	st := p.Stats()
	if st.Spend != want {
		t.Errorf("proxy spend = %v, want the attempted tier's %v", st.Spend, want)
	}
	if ans.Cost != want {
		t.Errorf("answer cost = %v, want %v", ans.Cost, want)
	}
	if st.ModelCalls != 1 {
		t.Errorf("model calls = %d, want 1 attempted step", st.ModelCalls)
	}
	if got := reg.Snapshot()["proxy_spend_microusd_total"]; got != float64(want) {
		t.Errorf("proxy_spend_microusd_total = %v, want %v", got, want)
	}
}

// TestBreakerSkipsDeadTier drives a cascade whose first tier always fails:
// after the breaker trips, later requests skip the dead tier and succeed
// on the healthy one.
func TestBreakerSkipsDeadTier(t *testing.T) {
	reg := obs.NewRegistry()
	var deadCalls atomic.Int64
	dead := namedModel{name: "dead", fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		deadCalls.Add(1)
		return llm.Response{}, fmt.Errorf("%w: tier down", llm.ErrTransient)
	}}
	healthy := llm.NewSim(llm.SimConfig{Name: "healthy", Capability: 0.95,
		Price: token.Price{InputPer1K: 1000, OutputPer1K: 1000}, Obs: reg})
	// A clock that never moves holds the tripped breaker open.
	p := newProxy(Config{
		Models: []llm.Model{dead, healthy},
		Obs:    reg, Tracer: obs.NewTracer(4),
		DisableCache: true,
	}, frozenClock)

	failures := 0
	for i := 0; i < 20; i++ {
		_, err := p.Complete(context.Background(), llm.Request{
			Prompt: fmt.Sprintf("question %d", i), Gold: "g", Difficulty: 0.3,
		})
		if err != nil {
			failures++
		}
	}
	// Exactly the breaker's 8 minimum samples fail while it gathers
	// evidence; everything after rides the healthy tier.
	if failures != 8 {
		t.Errorf("failures = %d, want 8 (breaker evidence-gathering)", failures)
	}
	if got := deadCalls.Load(); got != 8 {
		t.Errorf("dead tier called %d times, want 8", got)
	}
	if st := p.BreakerStates(); st["dead"] != resilience.Open {
		t.Errorf("dead tier breaker = %v, want open", st["dead"])
	}
	if got := reg.Snapshot()[`cascade_tier_skipped_total{model="dead"}`]; got != 12 {
		t.Errorf("skipped = %v, want 12", got)
	}
}

// TestFailedCallAnswersWithError: a request the cascade cannot answer
// fails, even with a near entry in the cache below its hit threshold —
// the client gets the error, never another question's answer. Once every
// breaker is open (on a clock that never moves, so none half-opens) the
// error is the retryable 503 upstream_unavailable: the JSON envelope
// with Retry-After, and the same body as the SSE error event.
func TestFailedCallAnswersWithError(t *testing.T) {
	reg := obs.NewRegistry()
	var failing atomic.Bool
	toggle := namedModel{name: "toggle", fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if failing.Load() {
			return llm.Response{}, llm.ErrTransient
		}
		return llm.Response{Text: req.Gold, Model: "toggle", Confidence: 0.99}, nil
	}}
	p := newProxy(Config{Models: []llm.Model{toggle}, Obs: reg, Tracer: obs.NewTracer(4),
		CacheThreshold: 0.995}, frozenClock)
	ctx := context.Background()
	if _, err := p.Complete(ctx, llm.Request{
		Prompt: "how many concerts were held in the stadium this year", Gold: "twelve",
	}); err != nil {
		t.Fatal(err)
	}

	failing.Store(true)
	near := "how many concerts were held in the stadium last year"
	ans, err := p.Complete(ctx, llm.Request{Prompt: near, Gold: "?"})
	if !errors.Is(err, llm.ErrTransient) || ans.Text != "" || ans.Source != "error" {
		t.Fatalf("a failed call near a cached entry = %+v, %v; want the upstream error", ans, err)
	}
	for i := 0; p.BreakerStates()["toggle"] != resilience.Open; i++ {
		if i == 50 {
			t.Fatal("the breaker of a tier that fails every call never opened")
		}
		p.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("trip %d", i), Gold: "?"})
	}

	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp := postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: near, Gold: "?"})
	var env ErrorEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("JSON: status %d, Retry-After %q; want 503 and 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if env.Error.Code != "upstream_unavailable" || !env.Error.Retryable {
		t.Errorf("JSON envelope = %+v, want retryable upstream_unavailable", env.Error)
	}

	resp = postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: near, Gold: "?", Stream: true})
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(events) != 1 || events[0].name != "error" {
		t.Fatalf("SSE events = %+v, want one error event", events)
	}
	var body ErrorBody
	if err := json.Unmarshal([]byte(events[0].data), &body); err != nil {
		t.Fatal(err)
	}
	if body != env.Error {
		t.Errorf("SSE error event %+v, JSON envelope %+v: the two surfaces disagree", body, env.Error)
	}
	if got := reg.Snapshot()[`proxy_requests_total{source="cache"}`]; got != 0 {
		t.Errorf("%v requests answered from the cache, want none", got)
	}
}

// TestFaultInjectionAvailabilityAndAccounting is the acceptance experiment
// in miniature: 30% per-attempt upstream failure, full resilience stack,
// availability >= 99%, and the proxy's spend matching the simulated
// models' own meters exactly — error paths included.
func TestFaultInjectionAvailabilityAndAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	small := llm.NewSim(llm.SimConfig{Name: "small", Capability: 0.55,
		Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg})
	large := llm.NewSim(llm.SimConfig{Name: "large", Capability: 0.97,
		Price: token.Price{InputPer1K: 30000, OutputPer1K: 60000}, Obs: reg})
	wrap := func(m llm.Model) llm.Model {
		return &llm.Retry{Inner: llm.NewFlaky(m, 0.3), Attempts: 6,
			BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, Obs: reg}
	}
	p := New(Config{Models: []llm.Model{wrap(small), wrap(large)},
		Obs: reg, Tracer: obs.NewTracer(16)})

	set := workload.GenQA(7, 40)
	total, ok := 0, 0
	for round := 0; round < 3; round++ {
		for _, it := range set.Items {
			_, err := p.Complete(context.Background(), llm.Request{
				Prompt: "Context: " + it.ContextFor() + "\nQ: " + it.Question,
				Gold:   it.Answer, Wrong: it.Distractor, Difficulty: it.Difficulty,
			})
			total++
			if err == nil {
				ok++
			}
		}
	}
	avail := float64(ok) / float64(total)
	if avail < 0.99 {
		t.Errorf("availability = %.4f (%d/%d), want >= 0.99", avail, ok, total)
	}
	st := p.Stats()
	want := small.Meter().Spend + large.Meter().Spend
	if st.Spend != want {
		t.Errorf("proxy spend %v != models' metered spend %v (error-path accounting leak)", st.Spend, want)
	}
	if st.Requests != int64(total) {
		t.Errorf("requests = %d, want %d", st.Requests, total)
	}
}

// TestParallelFlakyTrafficIsRaceFree drives Flaky through Proxy.Complete
// from many goroutines (run under -race, this exercises the Flaky attempt
// map and the detached-upstream accounting) and checks the spend invariant
// holds under concurrency.
func TestParallelFlakyTrafficIsRaceFree(t *testing.T) {
	reg := obs.NewRegistry()
	sim := llm.NewSim(llm.SimConfig{Name: "par", Capability: 0.9,
		Price: token.Price{InputPer1K: 1000, OutputPer1K: 1000}, Obs: reg})
	p := New(Config{
		Models: []llm.Model{&llm.Retry{Inner: llm.NewFlaky(sim, 0.3), Attempts: 8, Obs: reg}},
		Obs:    reg, Tracer: obs.NewTracer(8),
		DisableCache: true, MaxConcurrent: 8, MaxQueue: 64,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p.Complete(context.Background(), llm.Request{
					Prompt: fmt.Sprintf("shared prompt %d", (g+i)%10), Gold: "g", Difficulty: 0.2,
				})
			}
		}(g)
	}
	wg.Wait()
	if got, want := p.Stats().Spend, sim.Meter().Spend; got != want {
		t.Errorf("proxy spend %v diverged from the model meter %v under concurrency", got, want)
	}
}

// TestOverloadShedsWith503: with one slot and no queue, a second
// simultaneous request is shed with ErrOverloaded, and the HTTP layer maps
// it to 503 + Retry-After.
func TestOverloadShedsWith503(t *testing.T) {
	gate := make(chan struct{})
	slow := namedModel{name: "slow", fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		select {
		case <-gate:
			return llm.Response{Text: "g", Model: "slow", Confidence: 0.9}, nil
		case <-ctx.Done():
			return llm.Response{}, ctx.Err()
		}
	}}
	p := New(Config{Models: []llm.Model{slow}, DisableCache: true,
		Obs: obs.NewRegistry(), Tracer: obs.NewTracer(4), MaxConcurrent: 1})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	go p.Complete(context.Background(), llm.Request{Prompt: "hold the slot", Gold: "g"})
	waitFor(t, func() bool { return p.limiter.Running() == 1 })

	if _, err := p.Complete(context.Background(), llm.Request{Prompt: "direct", Gold: "g"}); !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("over-capacity Complete = %v, want ErrOverloaded", err)
	}
	resp := postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: "via http", Gold: "g"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := p.Stats().Shed; got != 2 {
		t.Errorf("shed = %d, want 2", got)
	}
	close(gate)
}

// TestQueuedCallerCancelIsCanceled: the outcome says what happened, not
// where. A caller whose context dies while it waits in the limiter's
// queue stopped listening, exactly like one whose context dies a step
// later on the chunk log — so it ends "canceled" with proxy_cancel at
// Info, not as a serving error; only a full queue is "shed".
func TestQueuedCallerCancelIsCanceled(t *testing.T) {
	for _, streamed := range []bool{false, true} {
		t.Run(readMode(streamed), func(t *testing.T) {
			gate := make(chan struct{})
			slow := namedModel{name: "slow", fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
				<-gate
				return llm.Response{Text: "g", Model: "slow", Confidence: 0.9}, nil
			}}
			p := New(Config{Models: []llm.Model{slow}, DisableCache: true, Obs: obs.NewRegistry(), MaxConcurrent: 1, MaxQueue: 1})
			holder := serveAsync(p, context.Background(), llm.Request{Prompt: "hold the slot", Gold: "g"}, false)
			waitFor(t, func() bool { return p.limiter.Running() == 1 })

			ctx, cancel := context.WithCancel(context.Background())
			queued := make(chan error, 1)
			go func() {
				_, err := probe(p, ctx, llm.Request{Prompt: "wait in line", Gold: "g"}, streamed)
				queued <- err
			}()
			waitFor(t, func() bool { return p.limiter.Queued() == 1 })
			cancel()
			if err := <-queued; err != context.Canceled {
				t.Fatalf("queued caller returned %v, want context.Canceled", err)
			}
			close(gate)
			<-holder

			events, _, _ := p.Events().EventsSince(0, obs.EventFilter{Tenant: probeTenant})
			if len(events) != 1 || events[0].Name != "proxy_cancel" || events[0].Level != "info" || events[0].Attrs["source"] != "canceled" {
				t.Errorf("the queued caller's events = %+v, want one proxy_cancel at info with source canceled", events)
			}
			if st := p.Stats(); st.Shed != 0 {
				t.Errorf("stats = %+v: a canceled wait is not a shed request", st)
			}
		})
	}
}

package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// TestProxyRunsOnOneClock drives a proxy on one fake clock, years behind
// the wall, and checks that every time decision reads it: the elapsed
// time and time to first token a client is told and the histograms see,
// the slow verdict, the breaker's cooldown, the alert engine's hold and
// the keep budget. The proxy's one tier moves the clock on by step per
// answered call, and fails while down.
func TestProxyRunsOnOneClock(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	var step atomic.Int64
	var down atomic.Bool
	var calls atomic.Int64
	tier := namedModel{name: "timed", fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		calls.Add(1)
		if down.Load() {
			return llm.Response{}, llm.ErrTransient
		}
		clk.Advance(time.Duration(step.Load()))
		return llm.Response{Text: req.Gold, Model: "timed", Confidence: 0.99}, nil
	}}
	reg := obs.NewRegistry()
	p := newProxy(Config{Models: []llm.Model{tier}, Obs: reg, DisableCache: true}, clk.Now)
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// complete answers one interactive request/response call whose tier
	// takes d of the clock, and returns its reply.
	complete := func(prompt string, d time.Duration) CompletionResponse {
		t.Helper()
		step.Store(int64(d))
		resp := postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: prompt, Gold: "g"})
		defer resp.Body.Close()
		var out CompletionResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", prompt, err)
		}
		return out
	}

	// The first request's trace is kept, not only promoted for being
	// slow: the budget's origin is on the clock its requests start on.
	first := complete("slow question", 600*time.Millisecond)
	if first.ElapsedMS != 600 {
		t.Errorf("JSON elapsed_ms = %v, want the 600 the tier took on the proxy's clock", first.ElapsedMS)
	}
	if got := reg.Snapshot()[`obs_traces_total{decision="kept"}`]; got != 1 {
		t.Errorf("obs_traces_total{decision=kept} = %v after the first request, want 1", got)
	}
	if fast := complete("fast question", 400*time.Millisecond); fast.ElapsedMS != 400 {
		t.Errorf("JSON elapsed_ms = %v, want 400", fast.ElapsedMS)
	}
	snap := reg.Snapshot()
	if got := snap[`slo_requests_total{class="interactive"}`]; got != 2 {
		t.Fatalf("slo_requests_total{interactive} = %v, want 2", got)
	}
	if got := snap[`slo_slow_total{class="interactive"}`]; got != 1 {
		t.Errorf("slo_slow_total{interactive} = %v, want 1: 600ms is over the 500ms target, 400ms is not", got)
	}

	// A streamed request: its first chunk, and its done event, come when
	// the tier has taken 300ms.
	step.Store(int64(300 * time.Millisecond))
	resp := postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: "streamed question", Gold: "g", Stream: true})
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	var done StreamDone
	if last := events[len(events)-1]; last.name != "done" || json.Unmarshal([]byte(last.data), &done) != nil {
		t.Fatalf("SSE events %+v: want a done event last", events)
	}
	if done.ElapsedMS != 300 {
		t.Errorf("SSE done elapsed_ms = %v, want 300", done.ElapsedMS)
	}
	snap = reg.Snapshot()
	if got := snap[`proxy_stream_ttft_seconds_count{source="cascade"}`]; got != 1 {
		t.Fatalf("proxy_stream_ttft_seconds_count{cascade} = %v, want 1", got)
	}
	if got := snap[`proxy_stream_ttft_seconds_sum{source="cascade"}`]; math.Abs(got-0.3) > 1e-9 {
		t.Errorf("proxy_stream_ttft_seconds_sum{cascade} = %v, want 0.3", got)
	}

	// One slow request in two burns the interactive latency budget 10x;
	// the rule holds 30s of the clock before it fires, and resolves once
	// the SLO tracker's 5m window has moved past the slow request.
	const burn = "slo_latency_burn_high"
	if st := rule(t, p, burn); st.State != "pending" {
		t.Fatalf("%s = %+v, want pending", burn, st)
	}
	clk.Advance(30*time.Second - time.Millisecond)
	if st := rule(t, p, burn); st.State != "pending" {
		t.Fatalf("%s 1ms before its hold = %+v, want pending", burn, st)
	}
	clk.Advance(time.Millisecond)
	if st := rule(t, p, burn); st.State != "firing" {
		t.Fatalf("%s after its 30s hold = %+v, want firing", burn, st)
	}
	clk.Advance(5 * time.Minute)
	if st := rule(t, p, burn); st.State != "inactive" {
		t.Fatalf("%s 5m later = %+v, want inactive", burn, st)
	}

	// The tier goes down until its breaker opens. The open breaker admits
	// its half-open probe only after 250ms of the clock.
	down.Store(true)
	for i := 0; p.BreakerStates()["timed"] != resilience.Open; i++ {
		if i == 20 {
			t.Fatalf("breaker = %v after 20 failures, want open", p.BreakerStates()["timed"])
		}
		complete(fmt.Sprintf("failing question %d", i), 0)
	}
	down.Store(false)
	tripped := calls.Load()
	clk.Advance(249 * time.Millisecond)
	complete("rejected question", 0)
	if got := calls.Load(); got != tripped {
		t.Errorf("249ms after the trip the tier was called %d times, want none", got-tripped)
	}
	clk.Advance(time.Millisecond)
	if probe := complete("probe question", 0); probe.Source != "cascade" || calls.Load() != tripped+1 {
		t.Errorf("250ms after the trip: source %q, %d calls; want the probe answered by the tier", probe.Source, calls.Load()-tripped)
	}
	if st := p.BreakerStates()["timed"]; st != resilience.Closed {
		t.Errorf("breaker after a good probe = %v, want closed", st)
	}
}

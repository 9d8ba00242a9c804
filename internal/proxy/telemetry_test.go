package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/obs"
)

// telemetryProxy builds a proxy on private obs plumbing so event/trace
// assertions never race with other tests' traffic.
func telemetryProxy(cfg Config) *Proxy {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(64)
	}
	if cfg.Log == nil {
		cfg.Log = obs.NewLogger(obs.NewEventLog(256), obs.Debug, cfg.Obs)
	}
	return newTestProxy(cfg)
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out interface{}) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp
}

// TestLifecycleReconstructedFromEvents is the tentpole's acceptance
// test: a request's full story — admission, cache miss, tier attempts,
// escalation, completion — is reconstructable from /debug/events
// keyed by the trace_id the response returned.
func TestLifecycleReconstructedFromEvents(t *testing.T) {
	p := telemetryProxy(Config{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// A hard question: the small tier lacks confidence, so the cascade
	// escalates to the large model.
	resp := postJSON(t, srv, "/v1/complete", CompletionRequest{
		Prompt: "prove the Riemann hypothesis", Gold: "answer", Difficulty: 0.95,
	})
	var cr CompletionResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.TraceID == "" {
		t.Fatal("response carries no trace_id")
	}

	var ev struct {
		Events []obs.Event `json:"events"`
	}
	getJSON(t, srv, "/debug/events?trace="+cr.TraceID, &ev)
	if len(ev.Events) == 0 {
		t.Fatalf("no events for trace %s", cr.TraceID)
	}
	var names []string
	for _, e := range ev.Events {
		names = append(names, e.Name)
		if e.Trace != cr.TraceID {
			t.Errorf("event %s carries trace %q, want %q", e.Name, e.Trace, cr.TraceID)
		}
	}
	story := strings.Join(names, " ")
	// The lifecycle in order; tier attempts happen twice (small then
	// large) with an escalation between them.
	wantOrder := []string{"proxy_admit", "proxy_cache_miss", "cascade_tier_attempt", "cascade_escalate", "cascade_tier_attempt", "proxy_complete"}
	idx := 0
	for _, n := range names {
		if idx < len(wantOrder) && n == wantOrder[idx] {
			idx++
		}
	}
	if idx != len(wantOrder) {
		t.Errorf("lifecycle %q missing ordered subsequence %v (matched %d)", story, wantOrder, idx)
	}
	// Events are seq-ordered.
	for i := 1; i < len(ev.Events); i++ {
		if ev.Events[i].Seq <= ev.Events[i-1].Seq {
			t.Errorf("events out of order: seq %d then %d", ev.Events[i-1].Seq, ev.Events[i].Seq)
		}
	}

	// The same trace id keys into /debug/traces.
	var tr struct {
		Traces []obs.SpanData `json:"traces"`
	}
	getJSON(t, srv, "/debug/traces?trace="+cr.TraceID, &tr)
	if len(tr.Traces) != 1 || tr.Traces[0].TraceID != cr.TraceID {
		t.Errorf("/debug/traces?trace= returned %+v", tr.Traces)
	}

	// A cache hit on the same prompt emits proxy_cache_hit on a new trace.
	resp = postJSON(t, srv, "/v1/complete", CompletionRequest{
		Prompt: "prove the Riemann hypothesis", Gold: "answer", Difficulty: 0.95,
	})
	var second CompletionResponse
	json.NewDecoder(resp.Body).Decode(&second)
	resp.Body.Close()
	if second.TraceID == "" || second.TraceID == cr.TraceID {
		t.Fatalf("second trace id %q (first %q)", second.TraceID, cr.TraceID)
	}
	getJSON(t, srv, "/debug/events?trace="+second.TraceID+"&name=proxy_cache_hit", &ev)
	if len(ev.Events) != 1 {
		t.Errorf("cache hit trace: got %d proxy_cache_hit events, want 1", len(ev.Events))
	}
}

// TestProxiesOwnTheirRings: a proxy given no Tracer, Log or Events builds
// rings of its own, so two proxies in one process do not serve each
// other's /debug/events and /debug/traces.
func TestProxiesOwnTheirRings(t *testing.T) {
	a := newTestProxy(Config{Obs: obs.NewRegistry()})
	defer a.Close()
	b := newTestProxy(Config{Obs: obs.NewRegistry()})
	defer b.Close()

	if _, err := a.Complete(context.Background(), llm.Request{Prompt: "only A serves this", Gold: "a", Difficulty: 0.1}); err != nil {
		t.Fatal(err)
	}
	if a.Events().Len() == 0 || a.Tracer().Len() == 0 {
		t.Errorf("A: events = %d, traces = %d, want both > 0", a.Events().Len(), a.Tracer().Len())
	}
	if b.Events().Len() != 0 || b.Tracer().Len() != 0 {
		t.Errorf("B served nothing but holds events = %d, traces = %d", b.Events().Len(), b.Tracer().Len())
	}
}

func TestDebugEventsFiltersAndValidation(t *testing.T) {
	p := telemetryProxy(Config{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: "q1", Gold: "a", Difficulty: 0.1}).Body.Close()
	postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: "q2", Gold: "a", Difficulty: 0.1}).Body.Close()

	var ev struct {
		Events      []obs.Event `json:"events"`
		Capacity    int         `json:"capacity"`
		Overwritten uint64      `json:"overwritten"`
	}
	getJSON(t, srv, "/debug/events", &ev)
	if len(ev.Events) == 0 || ev.Capacity != 256 {
		t.Fatalf("events = %d, capacity = %d", len(ev.Events), ev.Capacity)
	}
	// n caps to the newest n.
	getJSON(t, srv, "/debug/events?n=1", &ev)
	if len(ev.Events) != 1 {
		t.Errorf("n=1 returned %d events", len(ev.Events))
	}
	// level filters.
	getJSON(t, srv, "/debug/events?level=info", &ev)
	for _, e := range ev.Events {
		if e.Level == "debug" {
			t.Errorf("level=info returned a debug event %q", e.Name)
		}
	}
	// Unknown level and bad n are 400s.
	if resp := getJSON(t, srv, "/debug/events?level=loud", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad level: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/debug/events?n=-2", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", resp.StatusCode)
	}
	// Unmatched trace returns an empty (non-null) array.
	body, err := srv.Client().Get(srv.URL + "/debug/events?trace=t_none")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(body.Body)
	body.Body.Close()
	if !strings.Contains(string(raw), `"events":[]`) && !strings.Contains(string(raw), `"events": []`) {
		t.Errorf("unmatched trace body = %s, want empty events array", raw)
	}
}

func TestDebugEventsRingWraparoundOverHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	p := telemetryProxy(Config{Obs: reg, Log: obs.NewLogger(obs.NewEventLog(8), obs.Debug, reg)})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	for i := 0; i < 10; i++ {
		postJSON(t, srv, "/v1/complete", CompletionRequest{
			Prompt: fmt.Sprintf("unique question %d", i), Gold: "a", Difficulty: 0.1,
		}).Body.Close()
	}
	var ev struct {
		Events      []obs.Event `json:"events"`
		Capacity    int         `json:"capacity"`
		Overwritten uint64      `json:"overwritten"`
	}
	getJSON(t, srv, "/debug/events", &ev)
	if ev.Capacity != 8 {
		t.Errorf("capacity = %d, want 8", ev.Capacity)
	}
	if len(ev.Events) != 8 {
		t.Errorf("ring served %d events, want 8", len(ev.Events))
	}
	if ev.Overwritten == 0 {
		t.Error("overwritten = 0, want > 0 after wraparound — truncation must be visible")
	}
}

// TestDebugEndpointsConcurrent hammers /debug/events and /debug/traces
// while traffic flows — the race gate for the telemetry read paths.
func TestDebugEndpointsConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	p := telemetryProxy(Config{Obs: reg, Log: obs.NewLogger(obs.NewEventLog(32), obs.Debug, reg)})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				postJSON(t, srv, "/v1/complete", CompletionRequest{
					Prompt: fmt.Sprintf("worker %d q %d", w, i), Gold: "a", Difficulty: 0.1,
				}).Body.Close()
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				getJSON(t, srv, "/debug/events?n=10", nil).Body.Close()
				getJSON(t, srv, "/debug/traces?n=5", nil).Body.Close()
				getJSON(t, srv, "/metrics", nil).Body.Close()
			}
		}()
	}
	wg.Wait()
}

func TestMetricsContentTypeAndJSONEscapeHatch(t *testing.T) {
	p := telemetryProxy(Config{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: "q", Gold: "a", Difficulty: 0.1}).Body.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want the Prometheus 0.0.4 text type", ct)
	}
	if !strings.Contains(string(body), "proxy_requests_total") {
		t.Errorf("text exposition missing proxy_requests_total:\n%.400s", body)
	}
	if !strings.Contains(string(body), "slo_burn_rate") {
		t.Errorf("text exposition missing slo_burn_rate (scrape must refresh SLO gauges):\n%.400s", body)
	}

	resp, err = srv.Client().Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("?format=json Content-Type = %q, want application/json", ct)
	}
	var doc map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("?format=json is not JSON: %v", err)
	}
	if _, ok := doc["proxy_requests_total"]; !ok {
		t.Error("json exposition missing proxy_requests_total")
	}
}

func TestSLOEndpoint(t *testing.T) {
	p := telemetryProxy(Config{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: "q", Gold: "a", Difficulty: 0.1}).Body.Close()

	var snap obs.SLOSnapshot
	resp := getJSON(t, srv, "/v1/slo", &snap)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	cls, ok := snap.Classes["interactive"]
	if !ok {
		t.Fatalf("snapshot classes = %v, want interactive", snap.Classes)
	}
	w5 := cls.Windows["5m"]
	if w5.Requests != 1 || w5.Availability != 1 {
		t.Errorf("5m window = %+v, want 1 request fully available", w5)
	}
	if _, ok := cls.Windows["1h"]; !ok {
		t.Error("1h window missing")
	}

	// Disabled tracking 404s.
	p2 := telemetryProxy(Config{DisableSLO: true})
	defer p2.Close()
	srv2 := httptest.NewServer(p2.Handler())
	defer srv2.Close()
	if resp := getJSON(t, srv2, "/v1/slo", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled SLO: status %d, want 404", resp.StatusCode)
	}
}

func TestStatsLatencyPercentiles(t *testing.T) {
	p := telemetryProxy(Config{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	for i := 0; i < 3; i++ {
		postJSON(t, srv, "/v1/complete", CompletionRequest{Prompt: "same q", Gold: "a", Difficulty: 0.1}).Body.Close()
	}

	var st struct {
		Latency map[string]map[string]interface{} `json:"latency"`
	}
	getJSON(t, srv, "/v1/stats", &st)
	casc, ok := st.Latency["cascade"]
	if !ok {
		t.Fatalf("stats latency = %v, want a cascade entry", st.Latency)
	}
	quantile := func(name string) float64 {
		v, ok := casc[name].(float64)
		if !ok {
			t.Fatalf("%s = %v (%T), want float64", name, casc[name], casc[name])
		}
		return v
	}
	for _, q := range []string{"p50_ms", "p95_ms", "p99_ms"} {
		if quantile(q) < 0 {
			t.Errorf("%s = %g, want >= 0", q, quantile(q))
		}
	}
	if quantile("p50_ms") > quantile("p99_ms") {
		t.Errorf("p50 %g > p99 %g", quantile("p50_ms"), quantile("p99_ms"))
	}
	// The p99 bucket links to a concrete request's trace.
	if tr, ok := casc["p99_trace"].(string); !ok || tr == "" {
		t.Errorf("p99_trace = %v, want a trace ID", casc["p99_trace"])
	}
	if _, ok := st.Latency["cache"]; !ok {
		t.Errorf("stats latency = %v, want a cache entry after repeat hits", st.Latency)
	}
}

func TestPprofGating(t *testing.T) {
	p := telemetryProxy(Config{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	if resp := getJSON(t, srv, "/debug/pprof/", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	p2 := telemetryProxy(Config{EnablePprof: true})
	defer p2.Close()
	srv2 := httptest.NewServer(p2.Handler())
	defer srv2.Close()
	resp, err := srv2.Client().Get(srv2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
}

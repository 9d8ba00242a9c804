package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/token"
)

// slowModel is a SimModel whose every call takes delay of the proxy's
// clock: SimModel.Complete never sleeps (latency is simulated in the
// response), but the SLO tracker scores the latency the proxy measures.
type slowModel struct {
	*llm.SimModel
	clk   *fakeClock
	delay *atomic.Int64 // nanoseconds added to every call
}

func (s slowModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	s.clk.Advance(time.Duration(s.delay.Load()))
	return s.SimModel.Complete(ctx, req)
}

// postAsTenant drives POST /v1/complete with an X-LLMDM-Tenant header and
// returns the decoded response.
func postAsTenant(t *testing.T, srv *httptest.Server, tenant string, body map[string]interface{}) CompletionResponse {
	t.Helper()
	buf, _ := json.Marshal(body)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/complete", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/complete as %q: status %d", tenant, resp.StatusCode)
	}
	var out CompletionResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func findTenant(t *testing.T, snap obs.TenantSnapshot, name string) obs.TenantStat {
	t.Helper()
	for _, ts := range snap.Tenants {
		if ts.Tenant == name {
			return ts
		}
	}
	t.Fatalf("tenant %q not in snapshot %+v", name, snap.Tenants)
	return obs.TenantStat{}
}

func findRule(t *testing.T, snap obs.AlertsSnapshot, name string) obs.AlertStatus {
	t.Helper()
	for _, r := range snap.Rules {
		if r.Rule == name {
			return r
		}
	}
	t.Fatalf("rule %q not in alerts snapshot %+v", name, snap.Rules)
	return obs.AlertStatus{}
}

// TestTenancyExemplarsAndAlertLifecycle is the PR's acceptance test: two
// tenants with distinct workload shapes are attributed exactly (spend
// matches the model family's billing meter to the micro-dollar), the p99
// latency bucket's exemplar resolves to a retained trace, and the default
// SLO-burn alert walks pending → firing under injected upstream latency,
// then resolves after the burn window drains — with every transition
// visible in /debug/events.
func TestTenancyExemplarsAndAlertLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	delay := new(atomic.Int64)
	reg := obs.NewRegistry()
	ring := obs.NewEventLog(4096)
	small := llm.NewSim(llm.SimConfig{Name: "small", Capability: 0.3, Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg})
	large := llm.NewSim(llm.SimConfig{Name: "large", Capability: 0.95, Price: token.Price{InputPer1K: 30000, OutputPer1K: 60000}, Obs: reg})
	p := newProxy(Config{
		Obs:    reg,
		Tracer: obs.NewTracer(256),
		Log:    obs.NewLogger(ring, obs.Debug, reg),
		Models: []llm.Model{
			slowModel{small, clk, delay},
			slowModel{large, clk, delay},
		},
	}, clk.Now)
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	meterSpend := func() int64 {
		return int64(small.Meter().Spend + large.Meter().Spend)
	}

	// --- Phase A: attribution. "acme" is cache-heavy (one repeated
	// prompt), "umbrella" is escalation-heavy (unique hard prompts the
	// small tier can't answer). Traffic is serialized so each phase's
	// family-meter delta is that tenant's exact bill.
	before := meterSpend()
	for i := 0; i < 6; i++ {
		postAsTenant(t, srv, "acme", map[string]interface{}{
			"prompt": "what is the capital of Florin", "gold": "Esbjerg", "difficulty": 0.2,
		})
	}
	acmeBill := meterSpend() - before

	before = meterSpend()
	for i := 0; i < 4; i++ {
		postAsTenant(t, srv, "umbrella", map[string]interface{}{
			"prompt": fmt.Sprintf("prove the unique factorization theorem, variant %d", i),
			"gold":   fmt.Sprintf("proof-%d", i), "difficulty": 0.9,
		})
	}
	umbrellaBill := meterSpend() - before

	var tenants obs.TenantSnapshot
	getJSON(t, srv, "/v1/tenants", &tenants)
	acme := findTenant(t, tenants, "acme")
	if acme.Requests != 6 || acme.CacheHits != 5 {
		t.Errorf("acme = %+v, want 6 requests with 5 cache hits", acme)
	}
	if acme.SpendMicroUSD != acmeBill {
		t.Errorf("acme attributed spend %d µ$, billing meter says %d µ$", acme.SpendMicroUSD, acmeBill)
	}
	umbrella := findTenant(t, tenants, "umbrella")
	if umbrella.Requests != 4 || umbrella.Escalations != 4 {
		t.Errorf("umbrella = %+v, want 4 requests each escalating once", umbrella)
	}
	if umbrella.SpendMicroUSD != umbrellaBill {
		t.Errorf("umbrella attributed spend %d µ$, billing meter says %d µ$", umbrella.SpendMicroUSD, umbrellaBill)
	}
	if acmeBill <= 0 || umbrellaBill <= acmeBill {
		t.Errorf("bills acme=%d umbrella=%d: want 0 < acme < umbrella (escalations hit the large tier)", acmeBill, umbrellaBill)
	}
	if got := acme.SpendMicroUSD + umbrella.SpendMicroUSD; got != meterSpend() {
		t.Errorf("tenant spend sum %d != family meter %d", got, meterSpend())
	}

	// --- Phase B: the p99 cascade bucket's exemplar links to a trace the
	// tracer still holds.
	var stats map[string]json.RawMessage
	getJSON(t, srv, "/v1/stats", &stats)
	var latency map[string]map[string]interface{}
	if err := json.Unmarshal(stats["latency"], &latency); err != nil {
		t.Fatalf("stats latency: %v", err)
	}
	traceID, _ := latency["cascade"]["p99_trace"].(string)
	if traceID == "" {
		t.Fatal("cascade latency histogram has no p99 exemplar")
	}
	var traces struct {
		Traces []obs.SpanData `json:"traces"`
	}
	getJSON(t, srv, "/debug/traces?trace="+traceID, &traces)
	if len(traces.Traces) != 1 {
		t.Fatalf("p99 exemplar trace %q did not resolve via /debug/traces", traceID)
	}

	// --- Phase C: alert lifecycle. Degrade the upstream past the
	// interactive class's 500ms latency target; the 5m burn rate blows the default threshold and
	// slo_latency_burn_high goes pending, fires once the 30s for-duration
	// elapses on the shared fake clock, and resolves after the slow
	// events age out of the burn window.
	const rule = "slo_latency_burn_high"
	delay.Store(int64(600 * time.Millisecond))
	for i := 0; i < 8; i++ {
		postAsTenant(t, srv, "acme", map[string]interface{}{
			"prompt": fmt.Sprintf("slow question %d", i), "gold": "g", "difficulty": 0.1,
		})
	}
	delay.Store(0)

	var alerts obs.AlertsSnapshot
	getJSON(t, srv, "/v1/alerts", &alerts)
	if st := findRule(t, alerts, rule).State; st != "pending" {
		t.Fatalf("after slow burst: %s state %q, want pending", rule, st)
	}

	clk.Advance(31 * time.Second) // past the rule's 30s for-duration
	getJSON(t, srv, "/v1/alerts", &alerts)
	if st := findRule(t, alerts, rule).State; st != "firing" {
		t.Fatalf("after for-duration: %s state %q, want firing", rule, st)
	}
	if alerts.Firing < 1 {
		t.Errorf("alerts snapshot firing = %d, want >= 1", alerts.Firing)
	}

	clk.Advance(6 * time.Minute) // slow events age out of the 5m window
	getJSON(t, srv, "/v1/alerts", &alerts)
	if st := findRule(t, alerts, rule).State; st != "inactive" {
		t.Fatalf("after recovery: %s state %q, want inactive (resolved)", rule, st)
	}

	// Every transition is on the event log.
	var envelope struct {
		Events []obs.Event `json:"events"`
	}
	getJSON(t, srv, "/debug/events?name=alert_transition", &envelope)
	var seq []string
	for _, ev := range envelope.Events {
		if ev.Attrs["rule"] == rule {
			seq = append(seq, ev.Attrs["to"])
		}
	}
	want := []string{"pending", "firing", "resolved"}
	if len(seq) != len(want) {
		t.Fatalf("alert_transition events for %s: got %v, want %v", rule, seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("alert_transition events for %s: got %v, want %v", rule, seq, want)
		}
	}
}

// TestTenantAlertEndpointsConcurrent hammers /v1/tenants and /v1/alerts
// while mixed-tenant traffic flows — the race gate's proof that the
// accountant's lock-light aggregation and the alert engine's evaluation
// (whose rules snapshot the SLO tracker, the tenant table and the
// breakers) are safe against concurrent writers.
func TestTenantAlertEndpointsConcurrent(t *testing.T) {
	p := telemetryProxy(Config{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	const writers, readers, rounds = 4, 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				postAsTenant(t, srv, fmt.Sprintf("tenant-%d", (w+i)%6), map[string]interface{}{
					"prompt": fmt.Sprintf("hammer %d-%d", w, i), "gold": "g", "difficulty": 0.2,
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var tenants obs.TenantSnapshot
				getJSON(t, srv, "/v1/tenants?n=3", &tenants)
				var alerts obs.AlertsSnapshot
				getJSON(t, srv, "/v1/alerts", &alerts)
				var stats map[string]interface{}
				getJSON(t, srv, "/v1/stats", &stats)
			}
		}(r)
	}
	wg.Wait()

	var tenants obs.TenantSnapshot
	getJSON(t, srv, "/v1/tenants", &tenants)
	var total int64
	for _, ts := range tenants.Tenants {
		total += ts.Requests
	}
	if total != writers*rounds {
		t.Errorf("attributed %d requests across tenants, want %d", total, writers*rounds)
	}
}

// promptGate holds the call for one prompt until its gate opens, after
// saying on arrived that it got there, so a second request for that
// prompt joins the first as a coalesced follower.
type promptGate struct {
	*llm.SimModel
	prompt        string
	arrived, gate chan struct{}
}

func (g promptGate) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if req.Prompt == g.prompt {
		g.arrived <- struct{}{}
		<-g.gate
	}
	return g.SimModel.Complete(ctx, req)
}

// postAs posts req to /v1/complete as tenant and reads the whole reply:
// the JSON body, or every SSE event up to done.
func postAs(t *testing.T, srv *httptest.Server, tenant string, req CompletionRequest) {
	t.Helper()
	buf, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/complete", bytes.NewReader(buf))
	if err != nil {
		t.Error(err)
		return
	}
	hreq.Header.Set(TenantHeader, tenant)
	resp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Error(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST as %s: status %d", tenant, resp.StatusCode)
		return
	}
	if req.Stream {
		if ev := readSSE(t, resp.Body); len(ev) == 0 || ev[len(ev)-1].name != "done" {
			t.Errorf("SSE as %s ended %+v, want a done event", tenant, ev)
		}
		return
	}
	var out CompletionResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Error(err)
	}
}

// TestTenantRowsSumToTotalsPastCapacity: with three times as many tenants
// as named rows, over JSON and SSE, cache hits, cascade runs and a
// coalesced follower, the rows (named plus overflow) sum to the proxy's
// spend, to the model family's meters and to its request count.
func TestTenantRowsSumToTotalsPastCapacity(t *testing.T) {
	const tenants, capacity = 12, 4
	reg := obs.NewRegistry()
	small := llm.NewSim(llm.SimConfig{Name: "small", Capability: 0.3, Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg})
	large := llm.NewSim(llm.SimConfig{Name: "large", Capability: 0.95, Price: token.Price{InputPer1K: 30000, OutputPer1K: 60000}, Obs: reg})
	held := promptGate{small, "one question two tenants ask at once", make(chan struct{}, 1), make(chan struct{})}
	p := newTestProxy(Config{Obs: reg, TenantCapacity: capacity, Models: []llm.Model{held, large}})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("t%02d", i)
		difficulty := 0.1 + 0.8*float64(i%2) // odd tenants escalate to the large tier
		for j, stream := range []bool{false, true} {
			req := CompletionRequest{Prompt: distinctPrompt(2*i + j), Gold: "g", Difficulty: difficulty, Stream: stream}
			postAs(t, srv, tenant, req) // a cascade run
			postAs(t, srv, tenant, req) // its exact repeat, a cache hit
		}
	}
	// A leader on a named row and a follower on the overflow row.
	done := make(chan struct{}, 2)
	ask := func(tenant string) {
		postAs(t, srv, tenant, CompletionRequest{Prompt: held.prompt, Gold: "g", Difficulty: 0.9})
		done <- struct{}{}
	}
	go ask("t01")
	<-held.arrived
	go ask("t11")
	waitFor(t, func() bool { return p.Stats().Coalesced == 1 })
	close(held.gate)
	<-done
	<-done

	st := p.Stats()
	if st.CacheHits != 2*tenants || st.Coalesced != 1 || st.Requests != 4*tenants+2 {
		t.Fatalf("stats %+v, want %d cache hits, 1 coalesced, %d requests", st, 2*tenants, 4*tenants+2)
	}
	snap := p.Tenants().Snapshot(0)
	var spend, requests int64
	for _, ts := range snap.Tenants {
		spend += ts.SpendMicroUSD
		requests += ts.Requests
	}
	meters := int64(small.Meter().Spend + large.Meter().Spend)
	if spend != int64(st.Spend) || spend != meters {
		t.Errorf("Σ tenant spend %d µ$, Stats().Spend %d µ$, Σ family meters %d µ$: want all equal", spend, int64(st.Spend), meters)
	}
	if requests != st.Requests {
		t.Errorf("Σ tenant requests %d, Stats().Requests %d: want equal", requests, st.Requests)
	}
	if snap.Tracked != capacity || len(snap.Tenants) != capacity+1 {
		t.Fatalf("snapshot lists %d rows with %d tracked, want %d named rows plus the overflow row", len(snap.Tenants), snap.Tracked, capacity)
	}
	if over := findTenant(t, snap, obs.OverflowTenant); over.Requests != 4*(tenants-capacity)+1 || over.CacheHits != 2*(tenants-capacity) {
		t.Errorf("overflow row %+v, want %d requests with %d cache hits", over, 4*(tenants-capacity)+1, 2*(tenants-capacity))
	}
}

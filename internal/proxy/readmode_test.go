package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/token"
)

// The request under test in the read-mode tests carries a tenant of its
// own, so its events, its root span, its tenant row and its SLO series
// can be told from those of the helpers that set its scene (a cache
// warmer, a leader to follow, a slot holder), which run untagged.
const probeTenant = "probe"

// probe runs one request in the given read mode — Complete, or
// CompleteStream drained — and returns the settled answer. A streamed
// request shed at admission has no stream to ask, so no answer.
func probe(p *Proxy, ctx context.Context, req llm.Request, streamed bool) (Answer, error) {
	ctx = obs.WithTenant(ctx, probeTenant)
	if !streamed {
		// A class no helper uses; without a scheduler it changes nothing else.
		return p.Complete(sched.WithClass(ctx, sched.Batch), req)
	}
	s, err := p.CompleteStream(ctx, req)
	if err != nil {
		return Answer{}, err
	}
	defer s.Close()
	for {
		if _, err := s.Recv(); err != nil {
			return s.Answer()
		}
	}
}

var terminalEvents = map[string]bool{"proxy_complete": true, "proxy_cancel": true, "proxy_error": true}

// story is everything one probe left behind.
type story struct {
	events   []string // the probe's event names in order, proxy_first_chunk dropped
	terminal obs.Event
	root     obs.SpanData
}

// readStory collects the probe's story from p's sinks and checks what
// must hold in either mode: one terminal event, last; one SLO record;
// one tenant request; and a terminal event and root span that say what
// the Answer says.
func readStory(t *testing.T, p *Proxy, reg *obs.Registry, streamed bool, ans Answer) story {
	t.Helper()
	var st story
	terminals := 0
	for _, e := range p.Events().Events(obs.EventFilter{Tenant: probeTenant}) {
		if e.Name == "proxy_first_chunk" {
			if !streamed {
				t.Errorf("a request/response client was announced a first chunk")
			}
			continue
		}
		st.events = append(st.events, e.Name)
		if terminalEvents[e.Name] {
			terminals++
			st.terminal = e
		}
	}
	if terminals != 1 || len(st.events) == 0 || st.events[len(st.events)-1] != st.terminal.Name {
		t.Fatalf("events %v: want exactly one terminal event, last", st.events)
	}
	roots := 0
	for _, tr := range p.Tracer().Recent(0) {
		if tr.Attrs["tenant"] == probeTenant {
			roots++
			st.root = tr
		}
	}
	if roots != 1 {
		t.Fatalf("%d root spans for the probe, want 1", roots)
	}
	class := "batch"
	if streamed {
		class = "streaming"
	}
	if got := reg.Snapshot()[`slo_requests_total{class="`+class+`"}`]; got != 1 {
		t.Errorf("slo_requests_total{class=%q} = %v, want 1", class, got)
	}
	var requests int64
	for _, ts := range p.Tenants().Snapshot(0).Tenants {
		if ts.Tenant == probeTenant {
			requests = ts.Requests
		}
	}
	if requests != 1 {
		t.Errorf("tenant %s was recorded %d requests, want 1", probeTenant, requests)
	}
	if ans.Trace != "" {
		if ans.Trace != st.terminal.Trace || ans.Trace != st.root.TraceID {
			t.Errorf("answer trace %q, terminal event %q, root span %q", ans.Trace, st.terminal.Trace, st.root.TraceID)
		}
		chunks := strconv.Itoa(ans.Chunks)
		if st.terminal.Attrs["chunks"] != chunks || st.root.Attrs["chunks"] != chunks {
			t.Errorf("Answer.Chunks = %s, terminal event says %q, root span %q", chunks, st.terminal.Attrs["chunks"], st.root.Attrs["chunks"])
		}
		if ans.Elapsed <= 0 || st.terminal.Attrs["elapsed"] != ans.Elapsed.String() {
			t.Errorf("Answer.Elapsed = %v, terminal event says %q", ans.Elapsed, st.terminal.Attrs["elapsed"])
		}
	}
	return st
}

func keys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// readScenario is one outcome both read modes can reach: run plays it on
// a fresh proxy over reg and returns the proxy with what the probe
// returned, which must be wantErr.
type readScenario struct {
	outcome, terminal string
	wantErr           error
	run               func(t *testing.T, reg *obs.Registry, streamed bool) (*Proxy, Answer, error)
}

// readScenarios are the outcomes both read modes can reach, on proxies
// made by build from the scenario's Config.
func readScenarios(build func(Config) *Proxy) []readScenario {
	// A one-word answer is one chunk however the tier is read, so even the
	// chunk counts agree.
	easy := llm.Request{Prompt: "how many concerts were held in the stadium this year", Gold: "twelve", Difficulty: 0.05}
	// gated builds a proxy whose one tier blocks until the returned gate opens.
	gated := func(reg *obs.Registry, cfg Config) (*Proxy, chan struct{}) {
		gate := make(chan struct{})
		cfg.Models = []llm.Model{gatedSim{llm.NewSim(llm.SimConfig{Name: "small", Capability: 0.9,
			Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg}), gate}}
		cfg.Obs, cfg.DisableCache = reg, true
		return build(cfg), gate
	}
	// lead starts an untagged request/response leader and waits until its
	// call is in flight.
	lead := func(t *testing.T, p *Proxy, req llm.Request) <-chan served {
		leader := serveAsync(p, context.Background(), req, false)
		waitFor(t, func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return len(p.inflight) == 1
		})
		return leader
	}
	// follow starts the probe and waits until it has joined the leader's call.
	type result struct {
		ans Answer
		err error
	}
	follow := func(t *testing.T, p *Proxy, ctx context.Context, req llm.Request, streamed bool) <-chan result {
		out := make(chan result, 1)
		go func() {
			ans, err := probe(p, ctx, req, streamed)
			out <- result{ans, err}
		}()
		waitFor(t, func() bool { return p.Stats().Coalesced == 1 })
		return out
	}
	return []readScenario{
		{"cache", "proxy_complete", nil, func(t *testing.T, reg *obs.Registry, streamed bool) (*Proxy, Answer, error) {
			p := build(Config{Obs: reg})
			if _, err := p.Complete(context.Background(), easy); err != nil {
				t.Fatal(err)
			}
			ans, err := probe(p, context.Background(), easy, streamed)
			return p, ans, err
		}},
		{"cascade", "proxy_complete", nil, func(t *testing.T, reg *obs.Registry, streamed bool) (*Proxy, Answer, error) {
			p := build(Config{Obs: reg})
			ans, err := probe(p, context.Background(), easy, streamed)
			return p, ans, err
		}},
		{"coalesced", "proxy_complete", nil, func(t *testing.T, reg *obs.Registry, streamed bool) (*Proxy, Answer, error) {
			p, gate := gated(reg, Config{})
			leader := lead(t, p, easy)
			follower := follow(t, p, context.Background(), easy, streamed)
			close(gate)
			<-leader
			r := <-follower
			return p, r.ans, r.err
		}},
		{"stale", "proxy_complete", nil, func(t *testing.T, reg *obs.Registry, streamed bool) (*Proxy, Answer, error) {
			var failing bool
			toggle := namedModel{name: "toggle", fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
				if failing {
					return llm.Response{}, llm.ErrTransient
				}
				return llm.Response{Text: req.Gold, Model: "toggle", Confidence: 0.99}, nil
			}}
			p := build(Config{Models: []llm.Model{toggle}, Obs: reg, CacheThreshold: 0.995, StaleFloor: 0.3, DisableBreaker: true})
			if _, err := p.Complete(context.Background(), easy); err != nil {
				t.Fatal(err)
			}
			failing = true
			near := llm.Request{Prompt: "how many concerts were held in the stadium last year", Gold: "?"}
			ans, err := probe(p, context.Background(), near, streamed)
			return p, ans, err
		}},
		{"error", "proxy_error", llm.ErrTransient, func(t *testing.T, reg *obs.Registry, streamed bool) (*Proxy, Answer, error) {
			down := namedModel{name: "down", fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
				return llm.Response{}, llm.ErrTransient
			}}
			p := build(Config{Models: []llm.Model{down}, Obs: reg, DisableCache: true, DisableBreaker: true})
			ans, err := probe(p, context.Background(), easy, streamed)
			return p, ans, err
		}},
		{"canceled", "proxy_cancel", context.Canceled, func(t *testing.T, reg *obs.Registry, streamed bool) (*Proxy, Answer, error) {
			p, gate := gated(reg, Config{})
			leader := lead(t, p, easy)
			ctx, cancel := context.WithCancel(context.Background())
			follower := follow(t, p, ctx, easy, streamed)
			cancel()
			r := <-follower
			close(gate)
			<-leader
			return p, r.ans, r.err
		}},
		{"shed", "proxy_error", resilience.ErrOverloaded, func(t *testing.T, reg *obs.Registry, streamed bool) (*Proxy, Answer, error) {
			p, gate := gated(reg, Config{MaxConcurrent: 1})
			holder := lead(t, p, llm.Request{Prompt: "hold the slot", Gold: "g"})
			ans, err := probe(p, context.Background(), easy, streamed)
			close(gate)
			<-holder
			return p, ans, err
		}},
	}
}

// TestReadModeMatrix pins the one-record design: for every outcome both
// read modes can reach, the same request through Complete and through
// CompleteStream on two fresh proxies tells the same story — the same
// events in the same order (the streamed client's proxy_first_chunk
// aside), a terminal event named by the outcome alone with the same
// attribute keys and, but for mode, the same values, and a root span of
// the same name with the same attribute keys.
func TestReadModeMatrix(t *testing.T) {
	scenarios := readScenarios(newTestProxy)
	for _, sc := range scenarios {
		t.Run(sc.outcome, func(t *testing.T) {
			var stories [2]story
			for i, streamed := range []bool{false, true} {
				reg := obs.NewRegistry()
				p, ans, err := sc.run(t, reg, streamed)
				if !errors.Is(err, sc.wantErr) {
					t.Fatalf("%s: the probe returned %v, want %v", readMode(streamed), err, sc.wantErr)
				}
				st := readStory(t, p, reg, streamed, ans)
				if st.terminal.Name != sc.terminal || st.root.Attrs["source"] != sc.outcome || st.root.Name != "proxy.complete" {
					t.Errorf("%s: terminal event %s, root span %s with source %q; want %s and proxy.complete with source %q",
						readMode(streamed), st.terminal.Name, st.root.Name, st.root.Attrs["source"], sc.terminal, sc.outcome)
				}
				if mode := readMode(streamed); st.terminal.Attrs["mode"] != mode || st.root.Attrs["mode"] != mode {
					t.Errorf("mode = %q on the terminal event and %q on the root span, want %q", st.terminal.Attrs["mode"], st.root.Attrs["mode"], mode)
				}
				stories[i] = st
			}
			complete, stream := stories[0], stories[1]
			if !reflect.DeepEqual(complete.events, stream.events) {
				t.Errorf("events differ by read mode:\ncomplete %v\nstream   %v", complete.events, stream.events)
			}
			if !reflect.DeepEqual(keys(complete.terminal.Attrs), keys(stream.terminal.Attrs)) {
				t.Errorf("terminal attribute keys differ by read mode:\ncomplete %v\nstream   %v", keys(complete.terminal.Attrs), keys(stream.terminal.Attrs))
			}
			for k, v := range complete.terminal.Attrs {
				if k != "mode" && k != "elapsed" && stream.terminal.Attrs[k] != v {
					t.Errorf("terminal attribute %s: complete %q, stream %q", k, v, stream.terminal.Attrs[k])
				}
			}
			if !reflect.DeepEqual(keys(complete.root.Attrs), keys(stream.root.Attrs)) {
				t.Errorf("root span attribute keys differ by read mode:\ncomplete %v\nstream   %v", keys(complete.root.Attrs), keys(stream.root.Attrs))
			}
		})
	}
}

// The HTTP replies are projections of the settled Answer: what the JSON
// reply and the SSE done event report as elapsed time, chunk count and
// tier is what the request's own terminal event recorded — no clock or
// counter of the handler's.
func TestHTTPRepliesProjectTheAnswer(t *testing.T) {
	// Hard enough to escalate, so the answering tier is not tier 0.
	req := CompletionRequest{Prompt: "derive the asymptotic join selectivity bound", Gold: "the bound follows",
		Wrong: "it cannot be determined from the available statistics", Difficulty: 0.9}
	for _, streamed := range []bool{false, true} {
		t.Run(readMode(streamed), func(t *testing.T) {
			p := newTestProxy(Config{Obs: obs.NewRegistry(), DisableCache: true})
			srv := httptest.NewServer(p.Handler())
			defer srv.Close()
			req.Stream = streamed
			resp := postJSON(t, srv, "/v1/complete", req)
			defer resp.Body.Close()

			var (
				trace     string
				elapsedMS float64
				chunks    int
			)
			if !streamed {
				var cr CompletionResponse
				if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
					t.Fatal(err)
				}
				trace, elapsedMS = cr.TraceID, cr.ElapsedMS
			} else {
				events := readSSE(t, resp.Body)
				if len(events) < 2 {
					t.Fatalf("events = %+v, want chunks and a done event", events)
				}
				var last Chunk
				for _, ev := range events[:len(events)-1] {
					if err := json.Unmarshal([]byte(ev.data), &last); err != nil || ev.name != "chunk" {
						t.Fatalf("event %+v: %v", ev, err)
					}
				}
				var done StreamDone
				if err := json.Unmarshal([]byte(events[len(events)-1].data), &done); err != nil {
					t.Fatal(err)
				}
				if done.Chunks != len(events)-1 || done.Tier != last.Tier || last.Tier == 0 {
					t.Errorf("done reports %d chunks ending on tier %d; the stream carried %d ending on tier %d (want an escalation)",
						done.Chunks, done.Tier, len(events)-1, last.Tier)
				}
				trace, elapsedMS, chunks = done.TraceID, done.ElapsedMS, done.Chunks
			}
			terminal := p.Events().Events(obs.EventFilter{Trace: trace, Name: "proxy_complete"})
			if len(terminal) != 1 {
				t.Fatalf("%d proxy_complete events for trace %q, want 1", len(terminal), trace)
			}
			d, err := time.ParseDuration(terminal[0].Attrs["elapsed"])
			if err != nil || d <= 0 || elapsedMS != float64(d.Microseconds())/1000 {
				t.Errorf("reply says elapsed_ms %v, the request's terminal event %q (%v)", elapsedMS, terminal[0].Attrs["elapsed"], err)
			}
			if streamed && terminal[0].Attrs["chunks"] != strconv.Itoa(chunks) {
				t.Errorf("done says %d chunks, the request's terminal event %q", chunks, terminal[0].Attrs["chunks"])
			}
		})
	}
}

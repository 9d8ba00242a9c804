package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	gotoken "go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/semcache"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/token"
)

// vocabularyGolden is the serving stack's vocabulary as the drive below
// records it. README links it instead of listing names by hand.
var vocabularyGolden = filepath.Join("testdata", "golden", "vocabulary.md")

// The drive's sinks are large enough that nothing is lost: the trace ring
// holds more traces than the drive makes requests, so head sampling keeps
// every trace, and the event ring never wraps.
const (
	vocabularyTraces = 1024
	vocabularyEvents = 1 << 14
)

// vocabularyTenant tags every request the drive makes itself, so every
// event correlated to a request carries the tenant key.
const vocabularyTenant = "vocab"

// batchOnly is a model the scheduler can batch but the cascade cannot
// token-stream, so a streamed request reaches it through the scheduler's
// streaming bypass.
type batchOnly struct{ m *llm.SimModel }

func (b batchOnly) Name() string { return b.m.Name() }
func (b batchOnly) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return b.m.Complete(ctx, req)
}
func (b batchOnly) GenerateBatch(ctx context.Context, reqs []llm.Request) ([]llm.Response, error) {
	return b.m.GenerateBatch(ctx, reqs)
}

// vocabularyDrive runs the serving stack through every outcome and
// mechanism it has, over one registry, one trace ring and one event ring:
// the read-mode matrix (every outcome through Complete and through
// CompleteStream, what the JSON and SSE handlers call), JSON and SSE
// requests over HTTP with an escalation, an exact hit, a memo hit, two
// evictions and a streamed early exit, a batch-class and a streamed
// request through a scheduler, a breaker trip behind a retrying tier with
// an alert evaluation, and an upstream that panics.
func vocabularyDrive(t *testing.T) (*obs.Registry, *obs.Tracer, *obs.EventLog) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(vocabularyTraces)
	ring := obs.NewEventLog(vocabularyEvents)
	log := obs.NewLogger(ring, obs.Debug, reg)
	var proxies []*Proxy
	defer func() {
		for _, p := range proxies {
			p.Close()
		}
	}()
	buildOn := func(cfg Config, now func() time.Time) *Proxy {
		if cfg.Obs == nil {
			cfg.Obs = reg
		}
		cfg.Tracer, cfg.Log = tracer, log
		p := testProxyOn(cfg, now)
		proxies = append(proxies, p)
		return p
	}
	build := func(cfg Config) *Proxy { return buildOn(cfg, time.Now) }
	sim := func(name string, capability float64) *llm.SimModel {
		return llm.NewSim(llm.SimConfig{Name: name, Capability: capability,
			Price: token.Price{InputPer1K: 400, OutputPer1K: 400}, Obs: reg})
	}
	ctx := obs.WithTenant(context.Background(), vocabularyTenant)

	// Every outcome, in both read modes.
	for _, sc := range readScenarios(build) {
		for _, streamed := range []bool{false, true} {
			if _, _, err := sc.run(t, reg, streamed); !errors.Is(err, sc.wantErr) {
				t.Fatalf("%s, %s: the probe returned %v, want %v", sc.outcome, readMode(streamed), err, sc.wantErr)
			}
		}
	}

	// Over HTTP, into a one-entry cache in front of a tier that collapses
	// on hard questions.
	p := build(Config{Models: []llm.Model{sim("cheap", 0.2), sim("strong", 0.95)}, CacheCapacity: 1})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	post := func(req CompletionRequest, wantSource string) {
		t.Helper()
		body, _ := json.Marshal(req)
		hr, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/complete", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set(TenantHeader, vocabularyTenant)
		resp, err := srv.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var source string
		if req.Stream {
			events := readSSE(t, resp.Body)
			var done StreamDone
			if len(events) == 0 || json.Unmarshal([]byte(events[len(events)-1].data), &done) != nil {
				t.Fatalf("%q: SSE events %+v, want a done event last", req.Prompt, events)
			}
			source = done.Source
		} else {
			var cr CompletionResponse
			if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
				t.Fatal(err)
			}
			source = cr.Source
		}
		if source != wantSource {
			t.Fatalf("%q: source %q, want %q", req.Prompt, source, wantSource)
		}
	}
	const cached = "how many concerts were held in the stadium this year"
	p.cache.Put(cached, "twelve", semcache.Original, semcache.Reuse)
	post(CompletionRequest{Prompt: cached + "?", Gold: "twelve"}, "cache") // a scan hit leaves a memo
	post(CompletionRequest{Prompt: cached + "?", Gold: "twelve"}, "cache") // answered from it
	hard := CompletionRequest{Prompt: "derive the asymptotic join selectivity bound from the histogram",
		Gold: "the bound follows", Wrong: "the answer could not be determined from the available statistics in the catalog", Difficulty: 0.9}
	post(hard, "cascade") // escalates; its put evicts the first entry
	post(hard, "cache")
	hard.Prompt, hard.Stream = "derive the join cardinality estimate from the sampled histogram", true
	post(hard, "cascade") // exits the cheap tier mid-generation
	if p.Stats().CacheHits != 3 || reg.Snapshot()[`cascade_early_exit_total{model="cheap"}`] != 1 {
		t.Fatalf("HTTP drive: stats %+v, early exits %v; want 3 hits and 1 early exit", p.Stats(), reg.Snapshot()[`cascade_early_exit_total{model="cheap"}`])
	}

	// Through a scheduler: a batch-class request queues, a streamed one
	// bypasses the queue.
	p = build(Config{Models: []llm.Model{batchOnly{sim("batched", 0.95)}}, DisableCache: true,
		Scheduler: &sched.Config{}})
	easy := llm.Request{Prompt: "which stadium held the most concerts", Gold: "the old one", Difficulty: 0.05}
	if _, err := p.Complete(sched.WithClass(ctx, sched.Batch), easy); err != nil {
		t.Fatal(err)
	}
	if _, err := probe(p, ctx, easy, true); err != nil {
		t.Fatal(err)
	}

	// A tier that always fails, behind a retry, trips its breaker; later
	// requests skip it, and the alert engine sees the open breaker.
	dead := namedModel{name: "dead", fn: func(context.Context, llm.Request) (llm.Response, error) {
		return llm.Response{}, llm.ErrTransient
	}}
	// A clock that never moves holds the tripped breaker open.
	p = buildOn(Config{Models: []llm.Model{&llm.Retry{Inner: dead, Attempts: 2, Obs: reg}, sim("healthy", 0.95)},
		DisableCache: true}, frozenClock)
	for i := 0; i < 9; i++ {
		// The first eight fail while the breaker gathers its evidence.
		p.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("question %d", i), Gold: "g"})
	}
	if p.BreakerStates()["dead"] != resilience.Open || p.Alerts().Evaluate().Firing == 0 {
		t.Fatalf("breakers %v: want the dead tier open and an alert firing", p.BreakerStates())
	}

	// A tier that panics, behind one that bills and escalates: the pump's
	// ending still runs, so the client gets the error at once, the run's
	// spend is its meter, nothing stays in flight, and obs.Go counts the
	// panic. A later identical request leads a fresh run, which the tier
	// now answers.
	var panicked atomic.Bool
	cheap := sim("cheap", 0.2)
	p = build(Config{Models: []llm.Model{cheap, namedModel{name: "panics", fn: func(context.Context, llm.Request) (llm.Response, error) {
		if !panicked.Swap(true) {
			panic("vocabulary drive")
		}
		return llm.Response{Text: "the bound follows", Model: "panics", Confidence: 1}, nil
	}}}, DisableCache: true})
	// A dead call would hold its client until this deadline.
	pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	panicky := llm.Request{Prompt: hard.Prompt, Gold: hard.Gold, Wrong: hard.Wrong, Difficulty: hard.Difficulty}
	if _, err := p.Complete(pctx, panicky); !errors.Is(err, errUpstreamPanic) {
		t.Fatalf("the panicked call's client returned %v, want errUpstreamPanic", err)
	}
	waitFor(t, func() bool { return reg.Snapshot()[`goroutine_panics_total{task="proxy_upstream"}`] == 1 })
	if spend, meter := p.Stats().Spend, cheap.Meter().Spend; spend != meter || spend == 0 {
		t.Fatalf("the panicked run's spend is %v, want the cheap tier's meter %v", spend, meter)
	}
	if inflight := reg.Snapshot()["proxy_inflight"]; inflight != 0 {
		t.Fatalf("proxy_inflight = %v after the panicked call ended, want 0", inflight)
	}
	if ans, err := p.Complete(pctx, panicky); err != nil || ans.Source != "cascade" {
		t.Fatalf("the repeat after a panicked call: %+v, %v; want a fresh cascade run", ans, err)
	}

	if ring.Overwritten() != 0 || tracer.Len() == tracer.Cap() {
		t.Fatalf("the drive outgrew its sinks: %d events overwritten, %d of %d traces", ring.Overwritten(), tracer.Len(), tracer.Cap())
	}
	return reg, tracer, ring
}

// renderVocabulary writes what the sinks recorded as names and sorted
// keys: every metric family with its type and label keys, every event
// with its attribute keys, every span with its attribute keys.
func renderVocabulary(t *testing.T, reg *obs.Registry, tracer *obs.Tracer, ring *obs.EventLog) string {
	var exposition bytes.Buffer
	if err := reg.WriteJSON(&exposition); err != nil {
		t.Fatal(err)
	}
	var families map[string]struct {
		Type   string `json:"type"`
		Points []struct {
			Labels map[string]string `json:"labels"`
		} `json:"points"`
	}
	if err := json.Unmarshal(exposition.Bytes(), &families); err != nil {
		t.Fatal(err)
	}
	metrics, events, spans := keySets{}, keySets{}, keySets{}
	for name, f := range families {
		row := "`" + name + "` | " + f.Type
		metrics.add(row, nil)
		for _, pt := range f.Points {
			metrics.add(row, pt.Labels)
		}
	}
	recorded, _, _ := ring.EventsSince(0, obs.EventFilter{})
	for _, e := range recorded {
		events.add("`"+e.Name+"`", e.Attrs)
	}
	var walk func(s obs.SpanData)
	walk = func(s obs.SpanData) {
		spans.add("`"+s.Name+"`", s.Attrs)
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, tr := range tracer.Recent(0) {
		walk(tr)
	}

	var b strings.Builder
	b.WriteString(`# Serving vocabulary

Every metric family, event and span the serving stack recorded while
TestVocabularyGolden (internal/proxy/vocabulary_test.go) drove it through
every request outcome in both read modes, over HTTP, through a scheduler,
past a tripped breaker and a panicking upstream. Names and keys only,
sorted; no values. Regenerate with ` + "`make golden`" + ` and review the diff.
`)
	metrics.write(&b, "Metric families", "| family | type | label keys |\n|---|---|---|\n")
	events.write(&b, "Events", "| event | attribute keys |\n|---|---|\n")
	spans.write(&b, "Spans", "| span | attribute keys |\n|---|---|\n")
	return b.String()
}

// keySets maps a table row's leading cells to the union of the keys seen
// on that row's name.
type keySets map[string]map[string]bool

func (ks keySets) add(row string, keys map[string]string) {
	if ks[row] == nil {
		ks[row] = map[string]bool{}
	}
	for k := range keys {
		ks[row][k] = true
	}
}

// write renders one section: a row per name, its keys sorted and quoted.
func (ks keySets) write(b *strings.Builder, title, head string) {
	fmt.Fprintf(b, "\n## %s\n\n%s", title, head)
	rows := make([]string, 0, len(ks))
	for row := range ks {
		rows = append(rows, row)
	}
	sort.Strings(rows)
	for _, row := range rows {
		keys := make([]string, 0, len(ks[row]))
		for k := range ks[row] {
			keys = append(keys, "`"+k+"`")
		}
		sort.Strings(keys)
		fmt.Fprintf(b, "| %s | %s |\n", row, strings.Join(keys, ", "))
	}
}

// TestVocabularyGolden holds the serving vocabulary to
// testdata/golden/vocabulary.md byte for byte. A renamed event, a new span
// attribute or a new label key fails it; run `make golden` (or this test
// with -update-golden) and review the diff.
func TestVocabularyGolden(t *testing.T) {
	reg, tracer, ring := vocabularyDrive(t)
	got := renderVocabulary(t, reg, tracer, ring)
	if *updateGolden {
		if err := os.WriteFile(vocabularyGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(vocabularyGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("the serving vocabulary drifted from %s\n--- got ---\n%s--- want ---\n%s", vocabularyGolden, got, want)
	}
}

// unreachedNames are the event and span names the drive cannot record,
// each with the reason.
var unreachedNames = map[string]string{
	"llm.generate_batch": "the scheduler flushes a batch under its own detached context, so the batch call's span joins no request's trace",
}

// TestVocabularyReachesEveryName keeps the drive complete: every event
// and span name the serving packages' code spells as a literal appears in
// vocabulary.md, or in unreachedNames with the reason it cannot.
func TestVocabularyReachesEveryName(t *testing.T) {
	golden, err := os.ReadFile(vocabularyGolden)
	if err != nil {
		t.Fatal(err)
	}
	// The argument index of the name in each recording call.
	nameArg := map[string]int{"Event": 2, "Emit": 1, "StartSpan": 1, "StartSampled": 1}
	fset := gotoken.NewFileSet()
	for _, dir := range []string{".", "../core/semcache", "../core/cascade", "../sched", "../resilience", "../llm"} {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				i, known := nameArg[sel.Sel.Name]
				if !known || len(call.Args) <= i {
					return true
				}
				lit, ok := call.Args[i].(*ast.BasicLit)
				if !ok || lit.Kind != gotoken.STRING {
					return true
				}
				name, _ := strconv.Unquote(lit.Value)
				if _, excused := unreachedNames[name]; !excused && !bytes.Contains(golden, []byte("| `"+name+"` |")) {
					t.Errorf("%s: %s(%q) is not in %s: drive it in vocabularyDrive, or say in unreachedNames why it cannot be", fset.Position(call.Pos()), sel.Sel.Name, name, vocabularyGolden)
				}
				return true
			})
		}
	}
}

package llmdm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/datagen"
	"repro/internal/llm"
)

// llmRequestForTest builds a minimal completion request.
func llmRequestForTest() llm.Request {
	return llm.Request{Prompt: "label this obvious case", Gold: "yes", Difficulty: 0.05}
}

func TestClientModels(t *testing.T) {
	c := NewClient()
	for _, name := range []string{ModelSmall, ModelMedium, ModelLarge} {
		m, err := c.Model(name)
		if err != nil {
			t.Fatalf("Model(%s): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("Model(%s).Name() = %s", name, m.Name())
		}
	}
	if _, err := c.Model("gpt-99"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestClientSpendAccounting(t *testing.T) {
	c := NewClient()
	tr, err := c.Translator(ModelMedium)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Spend()
	if _, _, err := tr.Translate(context.Background(), "Show the names of stadiums that had concerts in 2014?"); err != nil {
		t.Fatal(err)
	}
	if c.Spend() <= before {
		t.Error("spend did not grow after a call")
	}
	c.ResetSpend()
	if c.Spend() != 0 {
		t.Error("reset did not zero spend")
	}
}

func TestClientCascade(t *testing.T) {
	c := NewClient()
	casc := c.Cascade(0.62)
	if len(casc.Models) != 3 {
		t.Errorf("cascade has %d models", len(casc.Models))
	}
}

func TestClientSemanticCache(t *testing.T) {
	c := NewClient()
	sc := c.SemanticCache(10, 0.9)
	sc.Put("a question about stadiums", "an answer", 0, 0)
	if _, ok := sc.Lookup("a question about stadiums"); !ok {
		t.Error("cache miss on exact key")
	}
}

func TestClientLakeAndKB(t *testing.T) {
	c := NewClient()
	lake := c.Lake()
	kb := DemoKnowledgeBase(1)
	for _, f := range kb.Facts()[:10] {
		lake.AddText("fact", f, nil)
	}
	if lake.Len() != 10 {
		t.Errorf("lake len = %d", lake.Len())
	}
	if len(lake.Search(kb.Cities[0].Name, 1)) != 1 {
		t.Error("lake search returned nothing")
	}
}

func TestClientSQLGenerator(t *testing.T) {
	c := NewClient()
	db := ConcertDB(1)
	g, err := c.SQLGenerator(db, ModelLarge, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := g.Generate(context.Background(), 6, datagen.Constraints{MustExecute: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 || st.Executable != 6 {
		t.Errorf("generated %d, executable %d", len(out), st.Executable)
	}
}

func TestClientResolver(t *testing.T) {
	c := NewClient()
	if _, err := c.Resolver("nope", 0.5, nil, ""); err == nil {
		t.Error("unknown model accepted")
	}
	r, err := c.Resolver(ModelLarge, 0.5, []string{"name"}, "")
	if err != nil || r == nil {
		t.Fatalf("resolver: %v", err)
	}
}

func TestPipelineFacade(t *testing.T) {
	c := NewClient()
	stages, err := c.Pipeline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 4 {
		t.Fatalf("stages = %d", len(stages))
	}
	want := []string{"generation", "transformation", "integration", "exploration"}
	for i, s := range stages {
		if s.Stage != want[i] {
			t.Errorf("stage %d = %s, want %s", i, s.Stage, want[i])
		}
		if s.Value == "" {
			t.Errorf("stage %s has empty value", s.Stage)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment(context.Background(), "table9"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 10 {
		t.Errorf("ids = %v", ids)
	}
}

func TestClientProxy(t *testing.T) {
	c := NewClient()
	p := c.Proxy(WithCacheCapacity(100), WithCascadeThreshold(0.62))
	if p == nil || p.Handler() == nil {
		t.Fatal("proxy not constructed")
	}
	ans, err := p.Complete(context.Background(), llmRequestForTest())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text == "" {
		t.Error("empty answer")
	}
}

// The facade's streaming vocabulary: CompleteStream through a client
// proxy yields ordered Chunks whose costs sum to the settled Answer.
func TestClientProxyCompleteStream(t *testing.T) {
	c := NewClient()
	p := c.Proxy(WithEarlyExit(0.35))
	s, err := p.CompleteStream(context.Background(), llmRequestForTest())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var (
		chunks []Chunk
		sum    Cost
	)
	for {
		ch, err := s.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, ch)
		sum += ch.Cost
	}
	if len(chunks) == 0 || !chunks[len(chunks)-1].Final {
		t.Fatalf("chunks = %+v", chunks)
	}
	ans, err := s.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text == "" || sum != ans.Cost {
		t.Fatalf("answer = %+v, chunk cost sum %v", ans, sum)
	}
}

// A proxy with a scheduler batches concurrent traffic, meters into the
// client's registry, and respects the PriorityBatch class end to end.
func TestClientProxyWithSchedulerAndMetrics(t *testing.T) {
	reg := NewMetricsRegistry()
	c := NewClient(WithMetricsRegistry(reg))
	p := c.Proxy(
		WithoutCache(),
		WithScheduler(SchedulerConfig{MaxBatch: 8}),
		WithResilience(ResilienceConfig{MaxConcurrent: 64, MaxQueue: 64}),
	)
	defer p.Close()
	if _, ok := p.SchedStats(); !ok {
		t.Fatal("scheduler not built")
	}

	ctx := WithPriority(context.Background(), PriorityBatch)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := llmRequestForTest()
			req.Prompt = fmt.Sprintf("%s variant %d", req.Prompt, i)
			if _, err := p.Complete(ctx, req); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	st, ok := p.SchedStats()
	if !ok || st.Submitted == 0 {
		t.Fatalf("scheduler saw no traffic: %+v", st)
	}
	if p.Stats().Spend != c.Spend() {
		t.Errorf("proxy spend %v, client meters %v", p.Stats().Spend, c.Spend())
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `sched_submitted_total{class="batch"}`) {
		t.Error("client registry missing batch-class scheduler metrics")
	}
}

// Canceling the pipeline context aborts it promptly with the context's
// error instead of running all four stages.
func TestPipelineCancellation(t *testing.T) {
	c := NewClient()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := c.Pipeline(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled pipeline returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("canceled pipeline still took %v", elapsed)
	}
}

// The unknown-experiment error lists every known ID exactly once,
// sorted.
func TestRunExperimentUnknownErrorListsIDsOnce(t *testing.T) {
	_, err := RunExperiment(context.Background(), "table9")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	msg := err.Error()
	all := append(ExperimentIDs(), AblationIDs()...)
	for _, id := range all {
		if got := strings.Count(msg, id); got != 1 {
			t.Errorf("error mentions %q %d times: %s", id, got, msg)
		}
	}
	sorted := append([]string(nil), all...)
	sort.Strings(sorted)
	if !strings.Contains(msg, strings.Join(sorted, ", ")) {
		t.Errorf("error does not list IDs sorted: %s", msg)
	}
}

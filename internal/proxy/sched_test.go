package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/sched"
)

func schedProxy(t *testing.T) (*Proxy, llm.Family, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	fam := llm.DefaultFamilyObs(reg)
	models := make([]llm.Model, len(fam))
	for i, m := range fam {
		// Paced, a tier is busy for the length of each call, so
		// concurrent requests queue behind the batch in flight and share
		// the next one: the scheduler never holds a request to batch it.
		models[i] = llm.NewPaced(m, 1000)
	}
	p := New(Config{
		Models:       models,
		DisableCache: true, // every request must reach the scheduler
		Scheduler:    &sched.Config{MaxBatch: 8},
		Obs:          reg,
		Tracer:       obs.NewTracer(16),
	})
	t.Cleanup(p.Close)
	return p, fam, reg
}

// Concurrent proxy traffic flows through the scheduler, bills exactly
// what the models meter, and shows up in the scheduler stats.
func TestProxySchedulerBatchesConcurrentTraffic(t *testing.T) {
	p, fam, _ := schedProxy(t)
	if _, ok := p.SchedStats(); !ok {
		t.Fatal("scheduler not built")
	}

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := p.Complete(context.Background(), llm.Request{
				Prompt:     fmt.Sprintf("question %d", i),
				Gold:       "g",
				Wrong:      "w",
				Difficulty: 0.3,
			})
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	st, ok := p.SchedStats()
	if !ok || st.Submitted == 0 {
		t.Fatalf("scheduler saw no traffic: %+v (ok=%v)", st, ok)
	}
	if st.Batches >= st.BatchedItems {
		t.Errorf("no batching: %d batches for %d items", st.Batches, st.BatchedItems)
	}
	// Proxy spend must equal the family meters exactly — per-item batch
	// billing, no skew through the scheduler.
	if spend := p.Stats().Spend; spend != fam.TotalSpend() {
		t.Errorf("proxy spend %v, family meters %v", spend, fam.TotalSpend())
	}
}

// The HTTP surface: priority is parsed into the scheduler class,
// /v1/stats grows a scheduler section, and /metrics exposes sched_*.
func TestProxySchedulerHTTP(t *testing.T) {
	p, _, _ := schedProxy(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/complete", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(`{"prompt":"hello there","gold":"hi","priority":"batch"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch-priority request: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post(`{"prompt":"hello again","gold":"hi","priority":"turbo"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority accepted: %d", resp.StatusCode)
	}
	resp.Body.Close()

	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats map[string]interface{}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	schedSec, ok := stats["scheduler"].(map[string]interface{})
	if !ok {
		t.Fatalf("stats have no scheduler section: %v", stats)
	}
	if schedSec["submitted"].(float64) < 1 {
		t.Errorf("scheduler section: %v", schedSec)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, want := range []string{"sched_submitted_total", "sched_batch_size"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// Without a Scheduler config (or with no batchable model) the proxy has
// no scheduler and /v1/stats stays scheduler-free.
func TestProxyWithoutScheduler(t *testing.T) {
	p := New(Config{DisableCache: true, Obs: obs.NewRegistry(), Tracer: obs.NewTracer(4)})
	if _, ok := p.SchedStats(); ok {
		t.Error("scheduler built without config")
	}
	p.Close() // must be a safe no-op
	if _, err := p.Complete(context.Background(), llm.Request{Prompt: "q", Gold: "g"}); err != nil {
		t.Fatal(err)
	}
}

package sched

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/token"
)

// benchModel builds a fresh paced simulated model. The pace scale
// compresses simulated seconds into wall-clock microseconds so the
// benchmark measures real elapsed time without taking real minutes.
func benchModel(scale float64) (*llm.Paced, *llm.SimModel) {
	sim := llm.NewSim(llm.SimConfig{
		Name:       "bench",
		Capability: 0.9,
		Price:      token.Price{InputPer1K: 1000, OutputPer1K: 2000},
		Obs:        obs.NewRegistry(),
	})
	return llm.NewPaced(sim, scale), sim
}

func benchReq(i int) llm.Request {
	return llm.Request{
		Task:       llm.TaskQA,
		Prompt:     fmt.Sprintf("benchmark question %d about throughput", i),
		Gold:       fmt.Sprintf("answer %d", i),
		Difficulty: 0.3,
	}
}

// runClients drives total requests from workers concurrent goroutines
// through call, returning elapsed wall clock and the exact summed cost
// of every response.
func runClients(t testing.TB, workers, perWorker int, call func(ctx context.Context, req llm.Request) (llm.Response, error)) (time.Duration, token.Cost) {
	t.Helper()
	ctx := context.Background()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		sum  token.Cost
		errs int
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local token.Cost
			for i := 0; i < perWorker; i++ {
				resp, err := call(ctx, benchReq(w*perWorker+i))
				if err != nil {
					mu.Lock()
					errs++
					mu.Unlock()
					return
				}
				local += resp.Cost
			}
			mu.Lock()
			sum += local
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if errs > 0 {
		t.Fatalf("%d workers failed", errs)
	}
	return elapsed, sum
}

// TestSchedThroughputWin is the headline gate for the scheduler: at 64
// concurrent clients the batched path must deliver at least 2× the
// request throughput of the direct per-request path on the same paced
// model, bill exactly what the model meters, and keep serving
// interactive traffic alongside a bulk backlog.
func TestSchedThroughputWin(t *testing.T) {
	const (
		workers   = 64
		perWorker = 8
		scale     = 2000 // 1 simulated second = 0.5ms wall
	)

	// Direct path: every request holds the model's single execution lane
	// for its own scaled latency — concurrency serializes.
	direct, directSim := benchModel(scale)
	directElapsed, directCost := runClients(t, workers, perWorker, direct.Complete)
	if got := directSim.Meter().Spend; got != directCost {
		t.Fatalf("direct path spend %v, responses sum to %v", got, directCost)
	}

	// Scheduled path: the same traffic batched through the scheduler pays
	// the sub-linear batch latency once per flush.
	paced, sim := benchModel(scale)
	s := New(Config{
		MaxBatch: 32,
		MaxWait:  2 * time.Millisecond,
		Obs:      obs.NewRegistry(),
	}, paced)
	defer s.Close()
	schedElapsed, schedCost := runClients(t, workers, perWorker, func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return s.Submit(ctx, "bench", req)
	})

	// Per-item billing through batches must match the model's meter and
	// the direct path exactly — batching saves time, not (here) money.
	if got := sim.Meter().Spend; got != schedCost {
		t.Fatalf("scheduled path spend %v, responses sum to %v", got, schedCost)
	}
	if schedCost != directCost {
		t.Fatalf("scheduled spend %v differs from direct spend %v for identical traffic", schedCost, directCost)
	}

	st := s.Stats()
	n := int64(workers * perWorker)
	if st.Submitted != n || st.BatchedItems != n {
		t.Fatalf("scheduler accounted %d submitted / %d batched, want %d", st.Submitted, st.BatchedItems, n)
	}
	if st.Batches >= n {
		t.Fatalf("no batching happened: %d batches for %d requests", st.Batches, n)
	}

	directRPS := float64(n) / directElapsed.Seconds()
	schedRPS := float64(n) / schedElapsed.Seconds()
	t.Logf("direct: %v (%.0f req/s)  scheduled: %v (%.0f req/s)  speedup %.1fx  batches %d (avg size %.1f)",
		directElapsed, directRPS, schedElapsed, schedRPS, schedRPS/directRPS, st.Batches, float64(n)/float64(st.Batches))
	if schedRPS < 2*directRPS {
		t.Errorf("scheduled throughput %.0f req/s is not 2x the direct %.0f req/s", schedRPS, directRPS)
	}
}

// BenchmarkSchedulerBatched measures scheduled throughput at 64-way
// concurrency; compare against BenchmarkSchedulerDirect.
func BenchmarkSchedulerBatched(b *testing.B) {
	paced, _ := benchModel(2000)
	s := New(Config{MaxBatch: 32, MaxWait: 2 * time.Millisecond, Obs: obs.NewRegistry()}, paced)
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runClients(b, 64, 4, func(ctx context.Context, req llm.Request) (llm.Response, error) {
			return s.Submit(ctx, "bench", req)
		})
	}
}

// BenchmarkSchedulerDirect is the unbatched baseline on the same paced
// model.
func BenchmarkSchedulerDirect(b *testing.B) {
	paced, _ := benchModel(2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runClients(b, 64, 4, paced.Complete)
	}
}

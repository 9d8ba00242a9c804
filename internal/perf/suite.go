package perf

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/semcache"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sched"
	"repro/internal/token"
	"repro/internal/vector"
)

// corpusSize is the vector-index population for the search benchmarks —
// big enough that flat vs HNSW scaling is visible, small enough that
// setup stays sub-second.
const corpusSize = 2048

// perfText returns the i-th synthetic document/query text.
func perfText(i int) string {
	return fmt.Sprintf("document %d about caching and cascades for serving workload %d", i, i%7)
}

// armedSize is the population at which the serving benchmark's
// semantic_read and churn_write workloads run the cache: the size the
// quantized prefilter and the eviction heap have to pay off at.
// shardedSize is the smallest population at which the sharded scan is
// armed by default.
const (
	armedSize   = 16384
	shardedSize = 131072
)

// buildCorpus embeds corpusSize documents once for the search benches.
func buildCorpus(e *embed.Embedder) []vector.Item { return buildCorpusN(e, corpusSize) }

func buildCorpusN(e *embed.Embedder, n int) []vector.Item {
	items := make([]vector.Item, n)
	for i := range items {
		items[i] = vector.Item{ID: vector.ID(i), Vec: e.Text(perfText(i))}
	}
	return items
}

// flatSearch is the body of the vector_flat_search* cases: top-10 over n
// documents in a flat index built with opts.
func flatSearch(n int, opts ...vector.FlatOption) func(b *testing.B) {
	return func(b *testing.B) {
		e := embed.New(embed.DefaultDim)
		idx := vector.NewFlat(e.Dim(), vector.Cosine, opts...)
		if err := idx.Add(buildCorpusN(e, n)...); err != nil {
			b.Fatal(err)
		}
		q := e.Text("query about caching for serving")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.Search(q, 10)
		}
	}
}

// fullCache returns a Weighted cache holding armedSize entries at
// capacity, so every further put evicts.
func fullCache() *semcache.Cache {
	c := semcache.New(semcache.Config{
		Embedder: embed.New(embed.DefaultDim),
		Capacity: armedSize,
		Policy:   semcache.Weighted,
		Obs:      obs.NewRegistry(),
		Log:      obs.NewLogger(obs.NewEventLog(64), obs.Debug, obs.NewRegistry()),
	})
	for i := 0; i < armedSize; i++ {
		c.Put(perfText(i), "cached answer", semcache.Original, semcache.Reuse)
	}
	return c
}

// perfParaphrase is a query that hits perfText(i) semantically, not
// exactly.
func perfParaphrase(i int) string { return "please find " + perfText(i) }

// Kernels is the compute-kernel suite: embedding, tokenizing and vector
// search, the non-model work on the serving path's critical path.
func Kernels() []Spec {
	return []Spec{
		{Name: "embed_text", Bench: func(b *testing.B) {
			e := embed.New(embed.DefaultDim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Text(perfText(i % 256))
			}
		}},
		{Name: "tokenizer_count", Bench: func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				n += token.Count(perfText(i % 256))
			}
			if n < 0 {
				b.Fatal("impossible token count")
			}
		}},
		{Name: "embed_text_scratch", Bench: func(b *testing.B) {
			e := embed.New(embed.DefaultDim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ReleaseScratch(e.TextScratch(perfText(i % 256)))
			}
		}},
		// The exact/quantized pairs at 2048 and 16384 rows are where
		// vector.quantAutoMin comes from, the serial/sharded pairs at 16384
		// and 131072 where vector.flatParallelMin does; every case pins its
		// mode so a change of those defaults cannot change what it measures.
		{Name: "vector_flat_search", Bench: flatSearch(corpusSize, vector.Exact())},
		{Name: "vector_flat_search_quantized", Bench: flatSearch(corpusSize, vector.Quantized())},
		{Name: "vector_flat_search_16k", Bench: flatSearch(armedSize, vector.Exact(), vector.ParallelMin(0))},
		{Name: "vector_flat_search_quantized_16k_serial", Bench: flatSearch(armedSize, vector.Quantized(), vector.ParallelMin(0))},
		{Name: "vector_flat_search_quantized_16k_sharded", Bench: flatSearch(armedSize, vector.Quantized(), vector.ParallelMin(armedSize))},
		{Name: "vector_flat_search_quantized_128k_serial", Bench: flatSearch(shardedSize, vector.Quantized(), vector.ParallelMin(0))},
		{Name: "vector_flat_search_quantized_128k_sharded", Bench: flatSearch(shardedSize, vector.Quantized(), vector.ParallelMin(shardedSize))},
		{Name: "vector_hnsw_search", Bench: func(b *testing.B) {
			e := embed.New(embed.DefaultDim)
			idx := vector.NewHNSW(vector.HNSWConfig{Dim: e.Dim(), Metric: vector.Cosine, Seed: 42})
			if err := idx.Add(buildCorpus(e)...); err != nil {
				b.Fatal(err)
			}
			q := e.Text("query about caching for serving")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Search(q, 10)
			}
		}},
		{Name: "vector_ivf_search_quantized", Bench: func(b *testing.B) {
			e := embed.New(embed.DefaultDim)
			idx := vector.NewIVF(vector.IVFConfig{Dim: e.Dim(), Metric: vector.Cosine, NList: 16, NProbe: 4, Seed: 42, Quantized: true})
			if err := idx.Add(buildCorpus(e)...); err != nil {
				b.Fatal(err)
			}
			idx.Train()
			q := e.Text("query about caching for serving")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Search(q, 10)
			}
		}},
	}
}

// perfModel builds a fresh simulated model for the serving benches; the
// paced wrapper compresses simulated seconds to wall-clock microseconds.
func perfModel(reg *obs.Registry, scale float64) (*llm.Paced, *llm.SimModel) {
	sim := llm.NewSim(llm.SimConfig{
		Name:         "bench",
		Capability:   0.9,
		Price:        token.Price{InputPer1K: 1000, OutputPer1K: 2000},
		TokensPerSec: 50,
		Obs:          reg,
	})
	return llm.NewPaced(sim, scale), sim
}

func perfReq(i int) llm.Request {
	return llm.Request{
		Task:       llm.TaskQA,
		Prompt:     fmt.Sprintf("benchmark question %d about serving throughput", i),
		Gold:       fmt.Sprintf("answer %d", i),
		Difficulty: 0.3,
	}
}

// Serving is the serving-path suite: semantic-cache lookups, proxy
// completions (cache-hit and full-cascade) and scheduler submission.
// ctx flows from the caller (the bench CLI's signal-aware root) into
// every model call so the suite stays cancelable.
func Serving(ctx context.Context) []Spec {
	return []Spec{
		{Name: "semcache_hit_exact", Bench: func(b *testing.B) {
			c := semcache.New(semcache.Config{
				Embedder: embed.New(embed.DefaultDim),
				Obs:      obs.NewRegistry(),
				Log:      obs.NewLogger(obs.NewEventLog(64), obs.Debug, obs.NewRegistry()),
			})
			for i := 0; i < 512; i++ {
				c.Put(perfText(i), "cached answer", semcache.Original, semcache.Reuse)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Lookup(perfText(i % 512)); !ok {
					b.Fatal("expected a cache hit")
				}
			}
		}},
		{Name: "semcache_lookup_miss", Bench: func(b *testing.B) {
			c := semcache.New(semcache.Config{
				Embedder:  embed.New(embed.DefaultDim),
				Threshold: 0.999,
				Obs:       obs.NewRegistry(),
				Log:       obs.NewLogger(obs.NewEventLog(64), obs.Debug, obs.NewRegistry()),
			})
			for i := 0; i < 512; i++ {
				c.Put(perfText(i), "cached answer", semcache.Original, semcache.Reuse)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(fmt.Sprintf("completely different probe %d", i))
			}
		}},
		{Name: "semcache_put_evict_16k", Bench: func(b *testing.B) {
			// Every put is of a new query into a full cache: embed, index
			// add, eviction, index remove.
			c := fullCache()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put(perfText(armedSize+i), "cached answer", semcache.Original, semcache.Reuse)
			}
			b.StopTimer()
			if got := c.Stats().Evictions; got != b.N {
				b.Fatalf("%d puts evicted %d entries", b.N, got)
			}
		}},
		{Name: "semcache_lookup_semantic_16k", Bench: func(b *testing.B) {
			c := fullCache()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if h, ok := c.Lookup(perfParaphrase(i % armedSize)); !ok || h.Exact {
					b.Fatal("expected a semantic cache hit")
				}
			}
		}},
		{Name: "semcache_lookup_semantic_16k_parallel", Bench: func(b *testing.B) {
			// The same lookups from GOMAXPROCS goroutines. Scans run outside
			// the cache's mutex, so with a core per caller this reads below
			// the serial case; equal to it would mean the scans queue again.
			c := fullCache()
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					if h, ok := c.Lookup(perfParaphrase(i % armedSize)); !ok || h.Exact {
						b.Error("expected a semantic cache hit")
						return
					}
				}
			})
		}},
		{Name: "proxy_complete_cache_hit", Bench: func(b *testing.B) {
			var spend token.Cost
			p := newBenchProxy(proxy.Config{Threshold: 0.5})
			ans, err := p.Complete(ctx, perfReq(1))
			if err != nil {
				b.Fatal(err)
			}
			spend += ans.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := p.Complete(ctx, perfReq(1))
				if err != nil {
					b.Fatal(err)
				}
				spend += a.Cost
			}
			if spend < 0 {
				b.Fatal("impossible spend")
			}
		}},
		{Name: "proxy_complete_cascade", Bench: func(b *testing.B) {
			var spend token.Cost
			p := newBenchProxy(proxy.Config{Threshold: 0.5, DisableCache: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := p.Complete(ctx, perfReq(i))
				if err != nil {
					b.Fatal(err)
				}
				spend += a.Cost
			}
			if spend <= 0 && b.N > 0 {
				b.Fatal("cascade path billed nothing")
			}
		}},
		{Name: "stream_ttft", Bench: func(b *testing.B) {
			// Time-to-first-token through the streaming path: the timer
			// runs only from CompleteStream to the first chunk; draining
			// and settling the rest of the stream happens off the clock.
			var spend token.Cost
			p := newBenchProxy(proxy.Config{Threshold: 0.5, DisableCache: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := p.CompleteStream(ctx, perfReq(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Recv(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for {
					if _, rerr := s.Recv(); rerr != nil {
						break
					}
				}
				ans, err := s.Answer()
				if err != nil {
					b.Fatal(err)
				}
				spend += ans.Cost
				s.Close()
				b.StartTimer()
			}
			b.StopTimer()
			if spend <= 0 && b.N > 0 {
				b.Fatal("stream path billed nothing")
			}
		}},
		{Name: "proxy_http_stream", Bench: func(b *testing.B) {
			// One whole SSE reply through Handler() into memory: the request
			// decoded, a 14-chunk cascade run behind it, every chunk and the
			// done event encoded, written and flushed — everything the
			// stream_cascade workload pays per request except the socket.
			// flushes/op is how many times the handler caught up with the
			// upstream; it cannot exceed the chunk count plus two.
			h := newBenchProxy(proxy.Config{Threshold: 0.5, DisableCache: true}).Handler()
			w := &memResponse{header: make(http.Header)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body := fmt.Sprintf(`{"prompt":"benchmark question %d about streamed serving","gold":"a fourteen word answer so that the tier streams it as fourteen separate chunks %d","difficulty":0.3,"stream":true}`, i, i)
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/complete", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				clear(w.header)
				h.ServeHTTP(w, req)
			}
			b.StopTimer()
			if w.flushes < b.N || !bytes.HasPrefix(w.last, []byte("event: done\n")) {
				b.Fatalf("%d replies took %d flushes and the last write was %q", b.N, w.flushes, w.last)
			}
			b.ReportMetric(float64(w.flushes)/float64(b.N), "flushes/op")
		}},
		{Name: "sched_submit", Bench: func(b *testing.B) {
			reg := obs.NewRegistry()
			model, sim := perfModel(reg, 100000)
			s := sched.New(sched.Config{
				MaxBatch: 16,
				MaxWait:  500 * time.Microsecond,
				MinWait:  20 * time.Microsecond,
				Obs:      reg,
				Log:      obs.NewLogger(obs.NewEventLog(64), obs.Debug, reg),
			}, model)
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Submit(ctx, "bench", perfReq(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if sim.Meter().Spend <= 0 && b.N > 0 {
				b.Fatal("scheduler path billed nothing")
			}
		}},
	}
}

// memResponse is the http.ResponseWriter of the proxy_http_stream case:
// it counts flushes and keeps only the latest write.
type memResponse struct {
	header  http.Header
	last    []byte
	flushes int
}

func (w *memResponse) Header() http.Header { return w.header }
func (w *memResponse) WriteHeader(int)     {}
func (w *memResponse) Flush()              { w.flushes++ }
func (w *memResponse) Write(b []byte) (int, error) {
	w.last = append(w.last[:0], b...)
	return len(b), nil
}

// newBenchProxy builds a proxy with private observability state so
// benchmark iterations never pollute the process-wide rings.
func newBenchProxy(cfg proxy.Config) *proxy.Proxy {
	reg := obs.NewRegistry()
	cfg.Obs = reg
	cfg.Tracer = obs.NewTracer(16)
	cfg.Log = obs.NewLogger(obs.NewEventLog(256), obs.Debug, reg)
	return proxy.New(cfg)
}

// ThroughputWin measures the scheduler's headline derived metric: the
// ratio of batched to direct request throughput for the same 32-way
// concurrent traffic on the same paced model (mirroring the sched
// package's TestSchedThroughputWin gate, which requires >= 2x at 64-way).
func ThroughputWin(ctx context.Context) (float64, error) {
	const (
		workers   = 32
		perWorker = 4
		scale     = 2000
	)
	direct, directSim := perfModel(obs.NewRegistry(), scale)
	directElapsed, err := driveClients(ctx, workers, perWorker, direct.Complete)
	if err != nil {
		return 0, err
	}
	if directSim.Meter().Spend <= 0 {
		return 0, fmt.Errorf("perf: direct path billed nothing")
	}

	reg := obs.NewRegistry()
	paced, sim := perfModel(reg, scale)
	s := sched.New(sched.Config{
		MaxBatch: 32,
		MaxWait:  2 * time.Millisecond,
		Obs:      reg,
		Log:      obs.NewLogger(obs.NewEventLog(64), obs.Debug, reg),
	}, paced)
	defer s.Close()
	schedElapsed, err := driveClients(ctx, workers, perWorker, func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return s.Submit(ctx, "bench", req)
	})
	if err != nil {
		return 0, err
	}
	if sim.Meter().Spend <= 0 {
		return 0, fmt.Errorf("perf: scheduled path billed nothing")
	}
	if schedElapsed <= 0 {
		return 0, fmt.Errorf("perf: zero scheduled elapsed time")
	}
	return directElapsed.Seconds() / schedElapsed.Seconds(), nil
}

// driveClients fans total = workers*perWorker requests out over workers
// goroutines, returning the wall-clock to finish them all.
func driveClients(ctx context.Context, workers, perWorker int, call func(ctx context.Context, req llm.Request) (llm.Response, error)) (time.Duration, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		spend    token.Cost
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := call(ctx, perfReq(w*perWorker+i))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				spend += resp.Cost
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	if spend < 0 {
		return 0, fmt.Errorf("perf: impossible negative spend")
	}
	return time.Since(start), nil
}

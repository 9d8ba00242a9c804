package perf

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
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
// setup stays sub-second. It is vector.quantAutoMin, so a flat index of
// it scans quantized.
const corpusSize = 2048

// perfText returns the i-th synthetic document/query text.
func perfText(i int) string {
	return fmt.Sprintf("document %d about caching and cascades for serving workload %d", i, i%7)
}

// armedSize is the population at which the serving benchmark's
// semantic_read and churn_write workloads run the cache: the size the
// quantized prefilter and the eviction heap have to pay off at.
const armedSize = 16384

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
// documents in a flat index.
func flatSearch(n int) func(b *testing.B) {
	return func(b *testing.B) {
		e := embed.New(embed.DefaultDim)
		idx := vector.NewFlat(e.Dim(), vector.Cosine)
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

// unseenQueries returns n texts that hit entries semantically and never
// repeat, so no lookup of one is a memo hit: para(i%armedSize) with its
// first i/armedSize letters upper-cased. The embedder folds case, so every
// round embeds and scans exactly as the first does.
func unseenQueries(para func(int) string, n int) []string {
	qs := make([]string, n)
	for i := range qs {
		b := []byte(para(i % armedSize))
		for j, up := 0, i/armedSize; j < len(b) && up > 0; j++ {
			if 'a' <= b[j] && b[j] <= 'z' {
				b[j] -= 'a' - 'A'
				up--
			}
		}
		qs[i] = string(b)
	}
	return qs
}

// noMemoHits fails a case whose lookups should all have scanned.
func noMemoHits(b *testing.B, c *semcache.Cache) {
	if n := c.Stats().MemoHits; n > 0 {
		b.Fatalf("%d lookups were memo hits: the case no longer times a scan", n)
	}
}

// sparseCache returns a Weighted cache at the proxy's 0.97 threshold
// holding armedSize wordText entries at capacity.
func sparseCache() *semcache.Cache {
	c := semcache.New(semcache.Config{
		Embedder:  embed.New(embed.DefaultDim),
		Capacity:  armedSize,
		Threshold: 0.97,
		Policy:    semcache.Weighted,
		Obs:       obs.NewRegistry(),
		Log:       obs.NewLogger(obs.NewEventLog(64), obs.Debug, obs.NewRegistry()),
	})
	for i := 0; i < armedSize; i++ {
		c.Put(wordText(i), "cached answer", semcache.Original, semcache.Reuse)
	}
	return c
}

// wordParaphrase is a query that hits wordText(i) semantically at 0.97.
func wordParaphrase(i int) string { return wordText(i) + "?" }

var wordSyllables = []string{"ba", "dre", "fi", "glo", "ku", "ma", "ne", "pri", "so", "tu", "vai", "zou", "rin", "lex", "thar", "ost"}

// wordText is the i-th prompt of a corpus shaped like the end-to-end
// benchmark's: twelve pronounceable words drawn per prompt, then a
// reference number. Unlike perfText's near-duplicates, two prompts share
// almost no features, so a lookup's floor (its hit threshold) proves nearly
// every row a miss before reading its whole code.
func wordText(i int) string {
	h := uint64(i)
	next := func() uint64 { // splitmix64
		h += 0x9e3779b97f4a7c15
		z := (h ^ h>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	b := make([]byte, 0, 128)
	for w := 0; w < 12; w++ {
		for s := 2 + next()%2; s > 0; s-- {
			b = append(b, wordSyllables[next()%uint64(len(wordSyllables))]...)
		}
		b = append(b, ' ')
	}
	b = append(b, "ref "...)
	return string(strconv.AppendInt(b, int64(i), 10))
}

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
		// Both sizes are at or past vector.quantAutoMin, so both scan
		// quantized, as every caller's store of that size does.
		{Name: "vector_flat_search_quantized", Bench: flatSearch(corpusSize)},
		{Name: "vector_flat_search_quantized_16k", Bench: flatSearch(armedSize)},
		{Name: "vector_flat_search_above_16k_sparse", Bench: func(b *testing.B) {
			// The semantic cache's scan without the cache: a Cosine Flat of
			// wordText rows searched at the proxy's 0.97 threshold, where
			// the head test drops almost every row inside its kernel.
			e := embed.New(embed.DefaultDim)
			idx := vector.NewFlat(e.Dim(), vector.Cosine)
			queries := make([]embed.Vector, armedSize)
			for i := range queries {
				if err := idx.Add(vector.Item{ID: vector.ID(i), Vec: e.Text(wordText(i))}); err != nil {
					b.Fatal(err)
				}
				queries[i] = e.Text(wordText(i) + "?")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rs := idx.SearchAbove(queries[i%armedSize], 1, 0.97); len(rs) != 1 || rs[0].ID != vector.ID(i%armedSize) {
					b.Fatalf("query %d found %v, want its own row", i%armedSize, rs)
				}
			}
		}},
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
		{Name: "vector_ivf_search", Bench: func(b *testing.B) {
			// 16 cells of about 128 rows: every cell scans exactly.
			e := embed.New(embed.DefaultDim)
			idx := vector.NewIVF(vector.IVFConfig{Dim: e.Dim(), Metric: vector.Cosine, NList: 16, NProbe: 4, Seed: 42})
			if err := idx.Add(buildCorpus(e)...); err != nil {
				b.Fatal(err)
			}
			q := e.Text("query about caching for serving")
			idx.Search(q, 10) // trains the quantizer
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
		Name:       "bench",
		Capability: 0.9,
		Price:      token.Price{InputPer1K: 1000, OutputPer1K: 2000},
		Obs:        reg,
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
		{Name: "semcache_lookup_miss_16k_sparse", Bench: func(b *testing.B) {
			// The miss churn_write pays on every request: a fresh wordText
			// prompt against a full quantized cache at the proxy's 0.97
			// threshold, proved below θ by the head pass and the tail dots.
			c := sparseCache()
			queries := unseenQueries(func(i int) string { return wordText(armedSize + i) }, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Lookup(queries[i]); ok {
					b.Fatal("expected a cache miss")
				}
			}
			b.StopTimer()
			noMemoHits(b, c)
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
			// Every lookup is a text the cache has not seen, so each one
			// embeds and scans; semcache_lookup_semantic_16k_repeat is the
			// memo hit.
			c := fullCache()
			queries := unseenQueries(perfParaphrase, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if h, ok := c.Lookup(queries[i]); !ok || h.Exact {
					b.Fatal("expected a semantic cache hit")
				}
			}
			b.StopTimer()
			noMemoHits(b, c)
		}},
		{Name: "semcache_lookup_semantic_16k_sparse", Bench: func(b *testing.B) {
			// semcache_lookup_semantic_16k's lookups on wordText prompts at
			// the proxy's 0.97 threshold, where the floored scan skips almost
			// every row before its whole code is read. perfText's
			// near-duplicates above are the side where it skips almost none.
			c := sparseCache()
			queries := unseenQueries(wordParaphrase, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if h, ok := c.Lookup(queries[i]); !ok || h.Exact {
					b.Fatal("expected a semantic cache hit")
				}
			}
			b.StopTimer()
			noMemoHits(b, c)
		}},
		{Name: "semcache_lookup_semantic_16k_parallel", Bench: func(b *testing.B) {
			// The same lookups from GOMAXPROCS goroutines. Scans run outside
			// the cache's mutex, so with a core per caller this reads below
			// the serial case; equal to it would mean the scans queue again.
			c := fullCache()
			queries := unseenQueries(perfParaphrase, b.N)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if h, ok := c.Lookup(queries[next.Add(1)-1]); !ok || h.Exact {
						b.Error("expected a semantic cache hit")
						return
					}
				}
			})
			b.StopTimer()
			noMemoHits(b, c)
		}},
		{Name: "semcache_lookup_semantic_16k_repeat", Bench: func(b *testing.B) {
			// semcache_lookup_semantic_16k_sparse's paraphrases asked again:
			// each is answered from the memo its first lookup left, with no
			// embedding and no scan — what an exact hit costs.
			c := sparseCache()
			queries := make([]string, armedSize)
			for i := range queries {
				queries[i] = wordParaphrase(i)
				c.Lookup(queries[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if h, ok := c.Lookup(queries[i%armedSize]); !ok || !h.Memo {
					b.Fatal("expected a memo hit")
				}
			}
		}},
		{Name: "semcache_put_memoized_16k", Bench: func(b *testing.B) {
			// A put of a new wordText prompt into a full 0.97 cache whose
			// every entry holds a memo: besides semcache_put_evict_16k's
			// work, the landing row's neighbour search at 2·0.97² − 1, which
			// drops the memos it could beat. The first put evicts the
			// least recently hit entry; after it the newcomers, which have
			// no hits, evict one another, so the memo table stays full.
			c := sparseCache()
			for i := 0; i < armedSize; i++ {
				c.Lookup(wordParaphrase(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put(wordText(armedSize+i), "cached answer", semcache.Original, semcache.Reuse)
			}
			b.StopTimer()
			if h, ok := c.Lookup(wordParaphrase(armedSize - 1)); !ok || !h.Memo {
				b.Fatal("the memo table emptied: the case no longer times a memoized put")
			}
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
		{Name: "llm_generate_stream", Bench: func(b *testing.B) {
			// One simulated tier opened and drained: a 14-word answer
			// adjudicated, cut, priced and billed chunk by chunk — what
			// the serving benchmark's llm.call_us times per streamed call.
			// The requests are built off the clock.
			_, sim := perfModel(obs.NewRegistry(), 1)
			reqs := make([]llm.Request, 1024)
			for i := range reqs {
				reqs[i] = llm.Request{
					Prompt:     fmt.Sprintf("benchmark question %d about streamed serving", i),
					Gold:       "a fourteen word answer so that the tier streams it as fourteen separate chunks",
					Difficulty: 0.3,
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := sim.GenerateStream(ctx, reqs[i%len(reqs)])
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := s.Recv(); err != nil {
						break
					}
				}
				if _, ok := s.Final(); !ok {
					b.Fatal("the stream did not finish")
				}
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
		{Name: "proxy_http_complete_cache_hit", Bench: func(b *testing.B) {
			// One JSON cache hit through Handler() into memory, the shape of
			// every hot_exact request: the body read and decoded, the tenant
			// header, the proxy's hit, the reply encoded and written — what
			// hot_exact's proxy.http.self_us and proxy.complete_us add up
			// to, without the socket. The request is built once and its
			// body rewound, so the allocations counted are the handler's.
			h := newBenchProxy(proxy.Config{Threshold: 0.5}).Handler()
			body := []byte(`{"task":"qa","prompt":"` + wordText(1) + `","gold":"zaisteal gloutroun koutaim hounar","difficulty":0.05}`)
			rb := new(rewindBody)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/complete", rb)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set(proxy.TenantHeader, "tenant-3")
			w := &memResponse{header: make(http.Header)}
			serve := func() {
				rb.Reset(body)
				clear(w.header)
				h.ServeHTTP(w, req)
			}
			serve() // the miss that fills the cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			b.StopTimer()
			if !bytes.Contains(w.last, []byte(`"source":"cache"`)) {
				b.Fatalf("the last reply was %q, want a cache hit", w.last)
			}
		}},
		{Name: "tenant_record_past_capacity", Bench: func(b *testing.B) {
			// A request's two accountant writes for a tenant first seen
			// after all DefaultTenantCapacity named rows are taken.
			a := obs.NewTenantAccountant(obs.TenantConfig{Obs: obs.NewRegistry()})
			for i := 0; i < obs.DefaultTenantCapacity; i++ {
				a.Record(fmt.Sprintf("tenant-%d", i), obs.TenantSample{})
			}
			newcomers := make([]string, 4*obs.DefaultTenantCapacity)
			for i := range newcomers {
				newcomers[i] = fmt.Sprintf("newcomer-%d", i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tenant := newcomers[i%len(newcomers)]
				a.Record(tenant, obs.TenantSample{Latency: time.Millisecond})
				a.AddSpend(tenant, 100, 0)
			}
		}},
		{Name: "tenant_spend_read_full", Bench: func(b *testing.B) {
			// tenant_spend_spike's read on a full table: every named row's
			// spend and the overflow row's, into the rule's own map.
			a := obs.NewTenantAccountant(obs.TenantConfig{Obs: obs.NewRegistry()})
			for i := 0; i <= obs.DefaultTenantCapacity; i++ {
				a.AddSpend(fmt.Sprintf("tenant-%d", i), 100, 0)
			}
			spend := map[string]int64{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(spend)
				a.ReadSpend(spend)
			}
		}},
		{Name: "sched_submit", Bench: func(b *testing.B) {
			reg := obs.NewRegistry()
			model, sim := perfModel(reg, 100000)
			s := sched.New(sched.Config{
				MaxBatch: 16,
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

// rewindBody is a request body that Reset rewinds for the next request.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// memResponse is the http.ResponseWriter of the proxy_http_* cases: it
// counts flushes and keeps only the latest write.
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

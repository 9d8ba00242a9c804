package semcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/obs"
	"repro/internal/vector"
)

func newCache(capacity int, policy Policy) *Cache {
	return New(Config{Embedder: embed.New(embed.DefaultDim), Capacity: capacity, Policy: policy})
}

func TestExactHit(t *testing.T) {
	c := newCache(0, Weighted)
	c.Put("in which city was Alice born?", "Lyon", Original, Reuse)
	h, ok := c.Lookup("in which city was Alice born?")
	if !ok || !h.Exact || h.Entry.Response != "Lyon" {
		t.Fatalf("hit = %+v ok=%v", h, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.ExactHits != 1 || st.Lookups != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSemanticHit(t *testing.T) {
	c := newCache(0, Weighted)
	c.Put("What are the names of stadiums that had concerts in 2014?", "Anfield, Camp Nou", Original, Reuse)
	// Paraphrase: high similarity, not exact.
	h, ok := c.Lookup("Show the names of stadiums that had concerts in 2014")
	if !ok {
		t.Fatal("semantic paraphrase missed")
	}
	if h.Exact {
		t.Error("paraphrase reported exact")
	}
	if h.Similarity < 0.85 || h.Similarity >= 1 {
		t.Errorf("similarity = %v", h.Similarity)
	}
}

func TestUnrelatedQueryMisses(t *testing.T) {
	c := newCache(0, Weighted)
	c.Put("What are the names of stadiums that had concerts in 2014?", "x", Original, Reuse)
	if _, ok := c.Lookup("predict the execution time of this analytical join query"); ok {
		t.Error("unrelated query hit")
	}
	if c.Stats().HitRate() != 0 {
		t.Errorf("hit rate = %v", c.Stats().HitRate())
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := newCache(0, Weighted)
	c.Put("q", "old", Original, Reuse)
	c.Put("q", "new", Original, Reuse)
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	h, _ := c.Lookup("q")
	if h.Entry.Response != "new" {
		t.Errorf("response = %q", h.Entry.Response)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(2, LRU)
	c.Put("alpha query one", "1", Original, Reuse)
	c.Put("beta query two", "2", Original, Reuse)
	c.Lookup("alpha query one") // refresh alpha
	c.Put("gamma query three", "3", Original, Reuse)
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, ok := c.Lookup("beta query two"); ok {
		t.Error("LRU kept the least recently used entry")
	}
	if _, ok := c.Lookup("alpha query one"); !ok {
		t.Error("LRU evicted the recently used entry")
	}
}

func TestLFUEviction(t *testing.T) {
	c := newCache(2, LFU)
	c.Put("alpha query one", "1", Original, Reuse)
	c.Put("beta query two", "2", Original, Reuse)
	c.Lookup("alpha query one")
	c.Lookup("alpha query one")
	c.Lookup("beta query two")
	c.Put("gamma query three", "3", Original, Reuse)
	if _, ok := c.Lookup("beta query two"); ok {
		t.Error("LFU kept the less frequent entry")
	}
}

func TestWeightedEvictionPrefersReuse(t *testing.T) {
	c := newCache(2, Weighted)
	c.Put("reuse entry query", "r", Original, Reuse)
	c.Put("augment entry query", "a", Original, Augment)
	// Same hit counts: the augment entry has lower weight and goes first.
	c.Lookup("reuse entry query")
	c.Lookup("augment entry query")
	c.Put("newcomer entry query", "n", Original, Reuse)
	if _, ok := c.Lookup("augment entry query"); ok {
		t.Error("weighted policy kept the augment entry over the reuse entry")
	}
	if _, ok := c.Lookup("reuse entry query"); !ok {
		t.Error("weighted policy evicted the reuse entry")
	}
}

func TestEvictionCountsAndCapacity(t *testing.T) {
	c := newCache(3, LRU)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("query number %d with padding words", i), "r", Original, Reuse)
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want 3", c.Len())
	}
	if c.Stats().Evictions != 7 {
		t.Errorf("evictions = %d, want 7", c.Stats().Evictions)
	}
}

func TestSubQueryEntries(t *testing.T) {
	c := newCache(0, Weighted)
	c.Put("In which city was Alice born?", "Lyon", SubQuery, Reuse)
	h, ok := c.Lookup("In which city was Alice born?")
	if !ok || h.Entry.Kind != SubQuery {
		t.Errorf("sub-query entry = %+v ok=%v", h, ok)
	}
}

func TestThresholdRespected(t *testing.T) {
	strict := New(Config{Embedder: embed.New(embed.DefaultDim), Threshold: 0.999})
	strict.Put("What are the names of stadiums that had concerts in 2014?", "x", Original, Reuse)
	if _, ok := strict.Lookup("Show the names of stadiums that had concerts in 2014"); ok {
		t.Error("strict threshold admitted a paraphrase")
	}
	loose := New(Config{Embedder: embed.New(embed.DefaultDim), Threshold: 0.5})
	loose.Put("What are the names of stadiums that had concerts in 2014?", "x", Original, Reuse)
	if _, ok := loose.Lookup("Show the names of stadiums that had concerts in 2014"); !ok {
		t.Error("loose threshold missed a paraphrase")
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || LFU.String() != "lfu" || Weighted.String() != "weighted" {
		t.Error("policy names wrong")
	}
}

func TestNewPanicsWithoutEmbedder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without embedder did not panic")
		}
	}()
	New(Config{})
}

func BenchmarkLookup(b *testing.B) {
	c := newCache(0, Weighted)
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("cached question number %d about stadiums", i), "r", Original, Reuse)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup("cached question number 42 about stadiums")
	}
}

// oracleVictim is the O(n) walk over every entry that evictLocked used to
// be, kept as the oracle for the eviction heap: the entry the policy values
// least, ties broken by lastUsed.
func oracleVictim(c *Cache) vector.ID {
	var victim vector.ID
	first := true
	better := func(a, b *Entry) bool { // is a a better victim than b?
		switch c.evict.policy {
		case LRU:
			return a.lastUsed < b.lastUsed
		case LFU:
			if a.Hits != b.Hits {
				return a.Hits < b.Hits
			}
			return a.lastUsed < b.lastUsed
		default: // Weighted
			wa, wb := weight(a), weight(b)
			if wa != wb {
				return wa < wb
			}
			return a.lastUsed < b.lastUsed
		}
	}
	for id, e := range c.entries {
		if first || better(e, c.entries[victim]) {
			victim = id
			first = false
		}
	}
	return victim
}

// checkEvictionInvariants asserts, under the cache lock, that the heap,
// the two maps and the index hold the same entries, that every entry
// knows its heap position, that the heap order holds, and that the root
// is the oracle's victim.
func checkEvictionInvariants(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	if len(c.evict.es) != n || len(c.byExact) != n || c.idx.Len() != n {
		t.Fatalf("sizes diverged: heap %d, entries %d, byExact %d, index %d",
			len(c.evict.es), n, len(c.byExact), c.idx.Len())
	}
	for i, e := range c.evict.es {
		if e.pos != i || c.entries[e.id] != e || c.byExact[e.Query] != e.id {
			t.Fatalf("heap slot %d holds entry %d (%q) with pos %d", i, e.id, e.Query, e.pos)
		}
		if i > 0 && c.evict.before(e, c.evict.es[(i-1)/2]) {
			t.Fatalf("heap order broken between slot %d and its parent", i)
		}
	}
	if n > 0 {
		if got, want := c.evict.es[0].id, oracleVictim(c); got != want {
			t.Fatalf("heap root is entry %d, the walk picks %d", got, want)
		}
	}
}

// modelQuery returns the i-th query of the model tests' pool and a
// paraphrase of it close enough for a semantic hit at threshold 0.6.
func modelQuery(i int) (query, paraphrase string) {
	query = fmt.Sprintf("what is the capital city of country number %d in the atlas", i)
	return query, "tell me " + query
}

func newModelCache(capacity int, policy Policy) *Cache {
	reg := obs.NewRegistry()
	return New(Config{
		Embedder: embed.New(embed.DefaultDim), Capacity: capacity, Policy: policy, Threshold: 0.6,
		Obs: reg, Log: obs.NewLogger(obs.NewEventLog(64), obs.Debug, reg),
	})
}

// modelOp runs one random cache operation over a pool of queries a few
// times the capacity, so puts evict, re-puts and exact lookups find
// entries and paraphrases hit semantically.
func modelOp(c *Cache, r *rand.Rand, pool int) {
	query, paraphrase := modelQuery(r.Intn(pool))
	switch op := r.Intn(10); {
	case op < 4:
		class := Reuse
		if r.Intn(2) == 0 {
			class = Augment
		}
		c.Put(query, fmt.Sprintf("answer %d", r.Int()), Original, class)
	case op < 7:
		c.Lookup(query)
	case op < 9:
		c.Lookup(paraphrase)
	default:
		c.LookupStale(paraphrase, 0.3)
	}
}

// TestEvictionHeapMatchesWalk drives seeded random sequences of Put,
// re-Put, Lookup and LookupStale and asserts after every operation that
// the heap agrees with the O(n) walk, and at every eviction that the
// walk's victim — never the newcomer — is what left.
func TestEvictionHeapMatchesWalk(t *testing.T) {
	for _, policy := range []Policy{LRU, LFU, Weighted} {
		for _, capacity := range []int{1, 2, 64} {
			t.Run(fmt.Sprintf("%v/cap=%d", policy, capacity), func(t *testing.T) {
				c := newModelCache(capacity, policy)
				r := rand.New(rand.NewSource(int64(capacity) * 7))
				pool := 3*capacity + 2
				evictions := 0
				for step := 0; step < 1500; step++ {
					before := c.Stats().Evictions
					victim, full := "", c.Len() == capacity
					if full {
						victim = c.entries[oracleVictim(c)].Query
					}
					if r.Intn(4) == 0 { // a put of a query not cached: evicts when full
						query, _ := modelQuery(r.Intn(pool))
						_, cached := c.byExact[query]
						c.Put(query, "answer", Original, Class(r.Intn(2)))
						if _, kept := c.byExact[query]; !kept {
							t.Fatalf("step %d: the put of %q did not keep it", step, query)
						}
						if full && !cached {
							if _, still := c.byExact[victim]; still || c.Stats().Evictions != before+1 {
								t.Fatalf("step %d: put into a full cache kept the walk's victim %q", step, victim)
							}
							evictions++
						}
					} else {
						modelOp(c, r, pool)
					}
					checkEvictionInvariants(t, c)
				}
				if evictions == 0 {
					t.Error("sequence too tame to test anything: no evictions")
				}
			})
		}
	}
}

// The same operations from concurrent callers (run under -race): the
// invariants hold whenever the lock is free, and at the end.
func TestEvictionHeapConcurrent(t *testing.T) {
	for _, policy := range []Policy{LRU, LFU, Weighted} {
		c := newModelCache(64, policy)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(g)))
				for step := 0; step < 600; step++ {
					modelOp(c, r, 200)
				}
			}(g)
		}
		for i := 0; i < 20; i++ {
			checkEvictionInvariants(t, c)
		}
		wg.Wait()
		checkEvictionInvariants(t, c)
		if c.Stats().Evictions == 0 {
			t.Errorf("%v: no evictions: the run never filled the cache", policy)
		}
	}
}

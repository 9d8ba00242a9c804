package semcache

import (
	"fmt"
	"math/rand"
	"strings"
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
// is the oracle's victim. It is for a cache no put is running on: every
// entry's row has landed, and no evicted entry's row is left.
func checkEvictionInvariants(t *testing.T, c *Cache) {
	t.Helper()
	checkInvariants(t, c, true)
}

// checkInvariantsInFlight is checkEvictionInvariants while puts may be
// between their halves, when the index can lag the maps both ways: of
// the entries, only those whose index half has run must have a row.
func checkInvariantsInFlight(t *testing.T, c *Cache) {
	t.Helper()
	checkInvariants(t, c, false)
}

func checkInvariants(t *testing.T, c *Cache, settled bool) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	if len(c.evict.es) != n || len(c.byExact) != n || (settled && c.idx.Len() != n) {
		t.Fatalf("sizes diverged: heap %d, entries %d, byExact %d, index %d",
			len(c.evict.es), n, len(c.byExact), c.idx.Len())
	}
	for id, e := range c.entries {
		if e.gone || (settled && !e.indexed) {
			t.Fatalf("entry %d (%q): indexed %v, gone %v", id, e.Query, e.indexed, e.gone)
		}
		if _, ok := c.idx.Get(id); e.indexed && !ok {
			t.Fatalf("entry %d (%q) is indexed but has no row", id, e.Query)
		}
	}
	for i, e := range c.evict.es {
		if e.pos != i || c.entries[e.id] != e || c.byExact[e.Query] != e.id {
			t.Fatalf("heap slot %d holds entry %d (%q) with pos %d", i, e.id, e.Query, e.pos)
		}
		if i > 0 && c.evict.before(e, c.evict.es[(i-1)/2]) {
			t.Fatalf("heap order broken between slot %d and its parent", i)
		}
	}
	if len(c.memos) > n {
		t.Fatalf("%d memos for %d entries", len(c.memos), n)
	}
	for q, e := range c.memos {
		if c.entries[e.id] != e || !e.memoed || e.memoKey != q {
			t.Fatalf("the memo of %q names entry %d (%q), which is not live or does not hold it", q, e.id, e.Query)
		}
	}
	for _, e := range c.entries {
		if e.memoed && c.memos[e.memoKey] != e {
			t.Fatalf("entry %d (%q) holds the memo of %q, which names another", e.id, e.Query, e.memoKey)
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

// answerTo is the response modelOp puts for query: any answer a lookup
// returns can be checked against the query of the entry it came with.
func answerTo(query string, n int) string { return fmt.Sprintf("%s => %d", query, n) }

// modelOp runs one random cache operation over a pool of queries a few
// times the capacity, so puts evict, re-puts and exact lookups find
// entries and paraphrases hit semantically. It returns what a lookup
// returned.
func modelOp(c *Cache, r *rand.Rand, pool int) (Hit, bool) {
	query, paraphrase := modelQuery(r.Intn(pool))
	switch op := r.Intn(10); {
	case op < 4:
		class := Reuse
		if r.Intn(2) == 0 {
			class = Augment
		}
		c.Put(query, answerTo(query, r.Int()), Original, class)
		return Hit{}, false
	case op < 7:
		return c.Lookup(query)
	default:
		return c.Lookup(paraphrase)
	}
}

// TestEvictionHeapMatchesWalk drives seeded random sequences of Put,
// re-Put and Lookup and asserts after every operation that
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

// The same operations from concurrent callers (run under -race) into a
// cache that starts full, so scans overlap one another and the evictions
// the puts cause: the invariants hold whenever the lock is free, and at the
// end; every lookup was counted once, as a hit or as a miss; and no caller
// was ever handed another entry's answer.
func TestEvictionHeapConcurrent(t *testing.T) {
	for _, policy := range []Policy{LRU, LFU, Weighted} {
		const capacity = 64
		c := newModelCache(capacity, policy)
		for i := 0; i < capacity; i++ {
			query, _ := modelQuery(i)
			c.Put(query, answerTo(query, i), Original, Reuse)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(g)))
				for step := 0; step < 600; step++ {
					h, ok := modelOp(c, r, 200)
					if ok && !strings.HasPrefix(h.Entry.Response, h.Entry.Query+" => ") {
						t.Errorf("%v: the hit on %q carried the answer %q", policy, h.Entry.Query, h.Entry.Response)
						return
					}
				}
			}(g)
		}
		for i := 0; i < 20; i++ {
			checkInvariantsInFlight(t, c)
		}
		wg.Wait()
		checkEvictionInvariants(t, c)
		st := c.Stats()
		if st.Evictions == 0 {
			t.Errorf("%v: no evictions: the run never filled the cache", policy)
		}
		if c.Len() > capacity {
			t.Errorf("%v: %d entries in a cache of %d", policy, c.Len(), capacity)
		}
		hits, misses := c.mHitExact.Value()+c.mHitSemantic.Value(), c.mMisses.Value()
		if int64(st.Lookups) != hits+misses || int64(st.Lookups) != c.mLookups.Value() || int64(st.Hits) != hits {
			t.Errorf("%v: stats %+v, counters: lookups %d, hits %d, misses %d",
				policy, st, c.mLookups.Value(), hits, misses)
		}
	}
}

// scan is a lookup's scan half on its own: it embeds query and searches
// the index for its nearest entry at or above floor.
func (c *Cache) scan(query string, floor float64) nearest {
	qv := c.emb.TextScratch(query)
	defer c.emb.ReleaseScratch(qv)
	return c.nearestTo(*qv, floor)
}

// The scan half of a lookup runs without the cache lock: holding the lock
// across a call to it must not deadlock.
func TestScanHalfTakesNoCacheLock(t *testing.T) {
	c := newModelCache(0, LRU)
	query, paraphrase := modelQuery(1)
	c.Put(query, "answer", Original, Reuse)
	c.mu.Lock()
	near := c.scan(paraphrase, c.threshold)
	c.mu.Unlock()
	if !near.found || near.sim < 0.6 || near.exact {
		t.Errorf("scan of a paraphrase = %+v", near)
	}
}

// An entry evicted between a lookup's two halves is a miss: the scan's id
// names nothing any more, and must neither be charged nor returned.
func TestHitEvictedBetweenScanAndSettleIsAMiss(t *testing.T) {
	c := newModelCache(2, LRU)
	query, paraphrase := modelQuery(1)
	c.Put(query, "answer", Original, Reuse)
	near := c.scan(paraphrase, c.threshold)
	if !near.found || near.sim < c.threshold {
		t.Fatalf("scan of a paraphrase = %+v: premise broken", near)
	}
	for i := 2; i < 5; i++ { // capacity 2: the entry scanned is pushed out
		other, _ := modelQuery(i)
		c.Put(other, "answer", Original, Reuse)
	}
	if _, ok := c.byExact[query]; ok {
		t.Fatal("the scanned entry was not evicted: premise broken")
	}
	c.mu.Lock()
	h, ok := c.settleLocked(near, "")
	c.mu.Unlock()
	if ok {
		t.Errorf("settled on the evicted entry: %+v", h)
	}
	if st := c.Stats(); st.Lookups != 1 || st.Hits != 0 || c.mMisses.Value() != 1 {
		t.Errorf("stats %+v, misses %d: want one lookup, one miss", st, c.mMisses.Value())
	}
	checkEvictionInvariants(t, c)
}

// Package semcache implements the semantic LLM cache of the paper's
// Section III-C. Unlike a conventional exact-match cache, lookups embed the
// query and accept the nearest cached query above a similarity threshold.
// Entries carry a usage class — Reuse (a hit avoids the LLM call entirely)
// or Augment (a hit only enriches the next prompt) — and the weighted
// eviction policy prefers keeping Reuse entries, as the paper argues the
// two hit classes "should have different weights when considering
// eviction". Sub-query entries are first-class, enabling the Cache(A)
// configuration of Table III.
//
// One mutex guards the cache's own state, and nothing that runs under it is
// more than O(log n). A lookup is two halves. The scan half embeds the query
// and asks vector.Flat for the nearest entry (its blocked int8 scan) holding
// nothing of the cache's: the index has a read-write lock of its own, so
// scans from any number of callers overlap. The settle half takes the mutex
// for the bookkeeping alone — clock, counters, the hit charged to its entry
// — and looks the scanned id up again, because the entry may have been
// evicted in between; then the lookup is a miss (ids are never reused). A
// lookup of an exact entry needs no embedding and no scan and is one pass
// under the mutex. A put nests the index's lock inside the cache's
// (Cache.mu → Flat.mu); no other path holds both. The eviction victim is the
// root of an index-tracked min-heap ordered by (policy key, lastUsed), which
// every hit, re-put and removal keeps in order in O(log n) — the same victim
// a walk over all entries picks, because the logical clock makes lastUsed
// unique (see evictHeap).
package semcache

import (
	"sync"

	"repro/internal/embed"
	"repro/internal/obs"
	"repro/internal/vector"
)

// Class is how a cached entry is consumed on a hit.
type Class int

const (
	// Reuse entries replace an LLM call outright (case 1 in the paper).
	Reuse Class = iota
	// Augment entries only enrich the prompt of a new call (case 2).
	Augment
)

// Kind distinguishes original queries from decomposed sub-queries.
type Kind int

const (
	Original Kind = iota
	SubQuery
)

// Policy selects the eviction strategy.
type Policy int

const (
	// LRU evicts the least recently used entry.
	LRU Policy = iota
	// LFU evicts the least frequently hit entry.
	LFU
	// Weighted evicts the entry with the smallest class-weighted usage
	// score — the paper's proposed policy.
	Weighted
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case Weighted:
		return "weighted"
	default:
		return "unknown"
	}
}

// Entry is one cached (query, response) pair.
type Entry struct {
	Query    string
	Response string
	Kind     Kind
	Class    Class
	// Hits counts lookups served by this entry.
	Hits int
	// lastUsed is a logical clock value for recency.
	lastUsed int64
	// id and pos locate the entry in the index and in the eviction heap.
	id  vector.ID
	pos int
}

// Hit is a successful lookup.
type Hit struct {
	Entry      Entry
	Similarity float64
	Exact      bool
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Lookups   int
	Hits      int
	ExactHits int
	Evictions int
}

// HitRate is Hits/Lookups (0 when empty).
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache is a bounded semantic cache. Cache is safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	emb       *embed.Embedder
	idx       *vector.Flat
	entries   map[vector.ID]*Entry
	byExact   map[string]vector.ID
	nextID    vector.ID
	capacity  int
	threshold float64
	clock     int64
	stats     Stats
	// evict orders the entries by eviction preference, next victim at the
	// root; see evictHeap.
	evict evictHeap

	log *obs.Logger

	// Metric handles, resolved once at construction.
	mLookups, mHitExact, mHitSemantic, mMisses *obs.Counter
	mEvictions, mPuts                          *obs.Counter
	mStaleLookups, mStaleHits                  *obs.Counter
	hSimilarity                                *obs.Histogram
}

// Config parameterizes a Cache.
type Config struct {
	// Embedder embeds queries; required.
	Embedder *embed.Embedder
	// Capacity bounds the entry count; 0 means unbounded.
	Capacity int
	// Threshold is the minimum cosine similarity for a semantic hit.
	// Defaults to 0.85.
	Threshold float64
	// Policy selects eviction. Defaults to Weighted.
	Policy Policy
	// Obs receives the cache's hit/miss/evict/put counters and the
	// hit-similarity histogram.
	Obs *obs.Registry
	// Log receives semcache_evict lifecycle events.
	Log *obs.Logger
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	if cfg.Embedder == nil {
		panic("semcache: nil embedder")
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.85
	}
	return &Cache{
		emb:       cfg.Embedder,
		log:       cfg.Log,
		idx:       vector.NewFlat(cfg.Embedder.Dim(), vector.Cosine),
		entries:   make(map[vector.ID]*Entry),
		byExact:   make(map[string]vector.ID),
		evict:     evictHeap{policy: cfg.Policy},
		capacity:  cfg.Capacity,
		threshold: cfg.Threshold,

		mLookups:      cfg.Obs.Counter("semcache_lookups_total"),
		mHitExact:     cfg.Obs.Counter("semcache_hits_total", "kind", "exact"),
		mHitSemantic:  cfg.Obs.Counter("semcache_hits_total", "kind", "semantic"),
		mMisses:       cfg.Obs.Counter("semcache_misses_total"),
		mEvictions:    cfg.Obs.Counter("semcache_evictions_total"),
		mPuts:         cfg.Obs.Counter("semcache_puts_total"),
		mStaleLookups: cfg.Obs.Counter("semcache_stale_lookups_total"),
		mStaleHits:    cfg.Obs.Counter("semcache_stale_hits_total"),
		hSimilarity:   cfg.Obs.Histogram("semcache_hit_similarity", obs.SimilarityBuckets),
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Lookup finds the best cached entry for query: an exact match if present,
// otherwise the most similar entry above the threshold.
func (c *Cache) Lookup(query string) (Hit, bool) {
	return c.LookupTraced(query, "")
}

// LookupTraced is Lookup with the calling request's trace ID, retained
// as the hit-similarity histogram's exemplar so a borderline-similarity
// bucket resolves to a concrete request in /debug/traces.
func (c *Cache) LookupTraced(query, trace string) (Hit, bool) {
	// An exact entry needs no embedding and no scan: that lookup is one pass
	// under the lock. Any other releases the lock for the scan and settles
	// under it afterwards.
	var near nearest
	c.mu.Lock()
	id, exact := c.byExact[query]
	if !exact {
		c.mu.Unlock()
		near = c.scan(query)
		c.mu.Lock()
		id, exact = c.byExact[query] // put by another caller meanwhile
	}
	defer c.mu.Unlock()
	if exact {
		near = nearest{id: id, sim: 1, found: true, exact: true}
	}
	return c.settleLocked(near, c.threshold, false, trace)
}

// LookupStale finds the nearest cached entry at or above floor, ignoring
// the configured hit threshold — the degraded-mode lookup behind the
// proxy's stale-serve: when the whole cascade is down, an approximate old
// answer beats an error. Stale lookups keep their own counters
// (semcache_stale_*) so the headline hit rate stays a measure of normal
// operation.
func (c *Cache) LookupStale(query string, floor float64) (Hit, bool) {
	near := c.scan(query)
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.settleLocked(near, floor, true, "")
	h.Exact = ok && h.Entry.Query == query
	return h, ok
}

// nearest is what the scan half of a lookup hands its settle half: the
// index's closest entry and its similarity, if the index held anything.
type nearest struct {
	id    vector.ID
	sim   float64
	found bool
	exact bool // id came from byExact, not from a scan
}

// scan is the half of a lookup that costs: it embeds query and searches the
// index for its nearest entry, holding nothing of the cache's — the index
// has its own read lock, so any number of scans run side by side and beside
// the other callers' bookkeeping. The caller must not hold c.mu. Scratch
// embedding: the vector is only needed for this one search, so it is drawn
// from (and returned to) the embedder's pool instead of allocated per lookup.
func (c *Cache) scan(query string) nearest {
	qv := c.emb.TextScratch(query)
	defer c.emb.ReleaseScratch(qv)
	hits := c.idx.Search(*qv, 1)
	if len(hits) == 0 {
		return nearest{}
	}
	return nearest{id: hits[0].ID, sim: hits[0].Score, found: true}
}

// settleLocked is the half of a lookup that runs under c.mu, all of it
// O(log n): it ticks the clock, counts the lookup (under the stale counters
// when stale) and, when near is at or above atLeast, charges the hit to its
// entry. The scan ran without the lock, so the entry is looked up again: an
// id that is gone was evicted in between and the lookup is a miss — ids are
// never reused, so it cannot name another entry.
func (c *Cache) settleLocked(near nearest, atLeast float64, stale bool, trace string) (Hit, bool) {
	c.clock++
	if stale {
		c.mStaleLookups.Inc()
	} else {
		c.stats.Lookups++
		c.mLookups.Inc()
	}
	e := c.entries[near.id]
	if !near.found || near.sim < atLeast || e == nil {
		if !stale {
			c.mMisses.Inc()
		}
		return Hit{}, false
	}
	c.touchLocked(e)
	if stale {
		c.mStaleHits.Inc()
	} else {
		c.stats.Hits++
		if near.exact {
			c.stats.ExactHits++
			c.mHitExact.Inc()
		} else {
			c.mHitSemantic.Inc()
		}
		c.hSimilarity.ObserveWithExemplar(near.sim, trace)
	}
	return Hit{Entry: *e, Similarity: near.sim, Exact: near.exact}, true
}

// touchLocked records a hit on e at the current tick and restores e's
// place in the eviction order.
func (c *Cache) touchLocked(e *Entry) {
	e.Hits++
	e.lastUsed = c.clock
	c.evict.down(e.pos) // both keys only grow
}

// Put inserts a (query, response) pair. Re-putting an existing query
// refreshes its response.
func (c *Cache) Put(query, response string, kind Kind, class Class) {
	// Embedded before the lock, like a lookup's query; a re-put wastes the
	// microsecond. The index copies the vector into its own store, so
	// pooled scratch serves here too.
	qv := c.emb.TextScratch(query)
	defer c.emb.ReleaseScratch(qv)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if id, ok := c.byExact[query]; ok {
		e := c.entries[id]
		e.Response = response
		e.lastUsed = c.clock
		c.evict.down(e.pos)
		return
	}
	c.mPuts.Inc()
	e := &Entry{Query: query, Response: response, Kind: kind, Class: class, lastUsed: c.clock, id: c.nextID}
	c.nextID++
	c.entries[e.id] = e
	c.byExact[query] = e.id
	if err := c.idx.Add(vector.Item{ID: e.id, Vec: *qv}); err != nil {
		panic(err) // IDs are unique by construction
	}
	// The newcomer joins the eviction heap only after the eviction it
	// causes, which is what exempts it: a cold newcomer is not evicted
	// before it can prove useful.
	if c.capacity > 0 && len(c.entries) > c.capacity {
		c.evictLocked()
	}
	c.evict.push(e)
}

// evictLocked removes the entry the configured policy values least, the
// root of the eviction heap, from the heap, the maps and the index — the one
// way out of the cache.
func (c *Cache) evictLocked() {
	e := c.evict.popRoot()
	delete(c.byExact, e.Query)
	delete(c.entries, e.id)
	c.idx.Remove(e.id)
	c.stats.Evictions++
	c.mEvictions.Inc()
	// Evictions happen under the put-caller's lock but are cheap to log
	// (ring write, no I/O); they have no single owning request.
	c.log.Emit(obs.Debug, "semcache_evict", "policy", c.evict.policy.String(), "hits", e.Hits)
}

// evictHeap is an index-tracked min-heap of the cached entries under the
// policy's eviction order: the policy key (nothing for LRU, Hits for LFU,
// the class-weighted hit score for Weighted), then lastUsed. Every write
// to lastUsed takes a fresh clock tick, so no two entries share one and
// the order is total: the root is exactly the entry a walk over all
// entries would pick, whatever order the heap was built in. Each entry
// carries its position (Entry.pos), so a hit or a re-put restores the
// order with one O(log n) sift. Hits and lastUsed only ever grow, so those
// sifts only go down, and eviction — the only removal — pops the root. The
// sifts are written out rather than handed to container/heap because they
// run under the cache lock on every hit, where its interface calls would
// double their cost.
type evictHeap struct {
	policy Policy
	es     []*Entry
}

// before reports whether a is evicted before b.
func (h *evictHeap) before(a, b *Entry) bool {
	switch h.policy {
	case LRU:
	case LFU:
		if a.Hits != b.Hits {
			return a.Hits < b.Hits
		}
	default: // Weighted
		if wa, wb := weight(a), weight(b); wa != wb {
			return wa < wb
		}
	}
	return a.lastUsed < b.lastUsed
}

func (h *evictHeap) set(i int, e *Entry) {
	h.es[i] = e
	e.pos = i
}

func (h *evictHeap) push(e *Entry) {
	h.es = append(h.es, e)
	h.up(len(h.es)-1, e)
}

// popRoot removes and returns the next victim.
func (h *evictHeap) popRoot() *Entry {
	root, last := h.es[0], len(h.es)-1
	moved := h.es[last]
	h.es[last] = nil
	h.es = h.es[:last]
	if last > 0 {
		h.es[0] = moved
		h.down(0)
	}
	return root
}

// up moves e, at position i, toward the root until its parent is evicted
// before it.
func (h *evictHeap) up(i int, e *Entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(e, h.es[parent]) {
			break
		}
		h.set(i, h.es[parent])
		i = parent
	}
	h.set(i, e)
}

// down moves the entry at position i toward the leaves until it is
// evicted before both of its children.
func (h *evictHeap) down(i int) {
	e := h.es[i]
	for {
		child := 2*i + 1
		if child >= len(h.es) {
			break
		}
		if right := child + 1; right < len(h.es) && h.before(h.es[right], h.es[child]) {
			child = right
		}
		if !h.before(h.es[child], e) {
			break
		}
		h.set(i, h.es[child])
		i = child
	}
	h.set(i, e)
}

// weight scores an entry's retention value: hit count scaled by the class
// weight (Reuse hits save a whole LLM call; Augment hits only improve a
// prompt).
func weight(e *Entry) float64 {
	w := 1.0
	if e.Class == Augment {
		w = 0.4
	}
	return w * float64(e.Hits+1)
}

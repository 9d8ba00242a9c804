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
// and asks vector.Flat for the nearest entry at or above the hit threshold,
// holding nothing of the cache's: the index has a read-write lock of its
// own, so scans from any number of callers overlap. With that floor the
// index's blocked int8 scan proves most rows below it from their first 32
// code bytes and reads no further, so a miss finds no nearest entry at all.
// The settle half takes the mutex for the bookkeeping alone — clock,
// counters, the hit charged to its entry — and looks the scanned id up
// again, because the entry may have been evicted in between; then the lookup
// is a miss (ids are never reused). A lookup of an exact entry needs no
// embedding and no scan and is one pass under the mutex. A put is two halves
// too. The publish half takes the mutex and makes the entry an exact hit:
// the two maps and the eviction heap, a victim taken out of all three. The
// index half runs outside it and puts the entry's row into the index — from
// the embedding the missed lookup already made, when the caller kept it —
// and takes the victim's row out, so no path holds both locks. Until the row
// lands a paraphrase misses, as one whose scan began before the put would.
// An entry evicted before its row landed is settled by a handshake under the
// mutex (Entry.indexed, Entry.gone): whichever half comes second removes the
// row, once.
//
// A semantic hit leaves a memo: the query's exact text maps to the entry
// and similarity the scan found, so a repeat of that text is answered as an
// exact entry is, with no embedding and no scan, through the same settle
// half. Three rules under the mutex keep every memo hit equal to a fresh
// scan (see memoizeLocked). A memo is made only from a scan no row landed
// during. A landing row drops the memos of the entries within 2·acos θ of
// it — the only ones it can beat, by the triangle inequality on the sphere
// — found by one floored search of its own row after it lands; a search
// cut short kills every memo. A memo of an evicted entry, or older than
// the last search cut short, is never served. An entry holds at most one
// memo, so there are never more memos than entries. The price is on the
// put side — while memos exist, the index half runs that search, a scan at
// the floor 2θ² − 1 — and in memory: about 50 bytes a memo, 16 more an
// entry, and the query text the memo keeps.
//
// The eviction victim is the root of an index-tracked min-heap ordered by
// (policy key, lastUsed), which every hit, re-put and removal keeps in
// order in O(log n) — the same victim a walk over all entries picks,
// because the logical clock makes lastUsed unique (see evictHeap).
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
	// indexed and gone are the put's handshake, both read and written
	// under Cache.mu: indexed once the index half has added the entry's
	// row, gone once eviction has taken the entry out of the maps and the
	// heap. Whichever is set second removes the row.
	indexed, gone bool
	// The entry's memo, when memoed: the query that resolved to it at
	// similarity memoSim, while Cache.memoEpoch read memoEpoch. All under
	// Cache.mu; see Cache.memos.
	memoed    bool
	memoEpoch uint32
	memoKey   string
	memoSim   float64
}

// Hit is a successful lookup.
type Hit struct {
	Entry      Entry
	Similarity float64
	Exact      bool
	// Memo marks a semantic hit answered from the memo of an earlier
	// lookup of the same text: the entry and similarity a scan would
	// have found, without the embedding and the scan.
	Memo bool
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Lookups   int
	Hits      int
	ExactHits int
	// MemoHits counts the semantic hits answered from a memo; they are
	// in Hits, not in ExactHits.
	MemoHits  int
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
	mu      sync.Mutex
	emb     *embed.Embedder
	idx     *vector.Flat
	entries map[vector.ID]*Entry
	byExact map[string]vector.ID
	// memos maps a query that hit semantically to the entry it resolved
	// to, keyed as byExact is; the entry holds the memo's similarity and
	// epoch, and at most one memo. See memoizeLocked.
	memos     map[string]*Entry
	nextID    vector.ID
	capacity  int
	threshold float64
	clock     int64
	stats     Stats
	// evict orders the entries by eviction preference, next victim at the
	// root; see evictHeap.
	evict evictHeap
	// landing counts the rows published but not yet indexed, rowEpoch the
	// rows indexed so far, and memoEpoch the neighbour searches that were
	// cut short, each of which kills every memo; memoFloor is the
	// similarity within which a landing row can beat a memo. See
	// memoizeLocked.
	landing   int
	rowEpoch  uint64
	memoEpoch uint32
	memoFloor float64

	log *obs.Logger

	// Metric handles, resolved once at construction.
	mLookups, mHitExact, mHitSemantic, mMisses *obs.Counter
	mEvictions, mPuts                          *obs.Counter
	mMemoHits, mMemoInvalidations              *obs.Counter
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
		memos:     make(map[string]*Entry),
		evict:     evictHeap{policy: cfg.Policy},
		capacity:  cfg.Capacity,
		threshold: cfg.Threshold,
		memoFloor: memoFloor(cfg.Threshold),

		mLookups:     cfg.Obs.Counter("semcache_lookups_total"),
		mHitExact:    cfg.Obs.Counter("semcache_hits_total", "kind", "exact"),
		mHitSemantic: cfg.Obs.Counter("semcache_hits_total", "kind", "semantic"),
		mMisses:      cfg.Obs.Counter("semcache_misses_total"),
		mEvictions:   cfg.Obs.Counter("semcache_evictions_total"),
		mPuts:        cfg.Obs.Counter("semcache_puts_total"),

		mMemoHits:          cfg.Obs.Counter("semcache_memo_hits_total"),
		mMemoInvalidations: cfg.Obs.Counter("semcache_memo_invalidations_total"),
		hSimilarity:        cfg.Obs.Histogram("semcache_hit_similarity", obs.SimilarityBuckets),
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
	h, ok, qv := c.LookupKeep(query, "")
	c.emb.ReleaseScratch(qv)
	return h, ok
}

// LookupKeep is Lookup for a caller that fills the cache when it misses,
// with the calling request's trace ID, retained as the hit-similarity
// histogram's exemplar so a borderline-similarity bucket resolves to a
// concrete request in /debug/traces. A miss whose scan embedded the query
// hands that embedding back (pooled scratch, nil for any other outcome),
// so the fill's Index does not embed the query again; the caller passes
// it to Index or to Release.
func (c *Cache) LookupKeep(query, trace string) (Hit, bool, *embed.Vector) {
	// An exact entry, or a live memo of the same text, needs no embedding
	// and no scan: that lookup is one pass under the lock. Any other
	// releases the lock for the scan and settles under it afterwards.
	c.mu.Lock()
	if near, known := c.recallLocked(query); known {
		h, ok := c.settleLocked(near, trace)
		c.mu.Unlock()
		return h, ok, nil
	}
	epoch := c.rowEpoch
	c.mu.Unlock()
	qv := c.emb.TextScratch(query)
	near := c.nearestTo(*qv, c.threshold)
	c.mu.Lock()
	h, ok := c.settleScanLocked(query, near, epoch, trace)
	c.mu.Unlock()
	if ok {
		c.emb.ReleaseScratch(qv)
		qv = nil
	}
	return h, ok, qv
}

// recallLocked answers query without a scan when it can: from byExact, or
// from its memo. A memo older than the last cut-short neighbour search is
// dropped, and no memo is served while a row is landing (see
// memoizeLocked).
func (c *Cache) recallLocked(query string) (nearest, bool) {
	if id, ok := c.byExact[query]; ok {
		return nearest{id: id, sim: 1, found: true, exact: true}, true
	}
	e, ok := c.memos[query]
	if !ok || c.landing > 0 {
		return nearest{}, false
	}
	if e.memoEpoch != c.memoEpoch {
		c.invalidateLocked(e)
		return nearest{}, false
	}
	return nearest{id: e.id, sim: e.memoSim, found: true, memo: true}, true
}

// settleScanLocked is the settle half of a lookup that scanned, from a
// scan that began when c.rowEpoch read epoch. A query put by another
// caller meanwhile is an exact hit. A semantic hit is memoized only if no
// row landed, or was landing, while the scan ran: a row that landed after
// the scan had passed it could have beaten the entry found.
func (c *Cache) settleScanLocked(query string, near nearest, epoch uint64, trace string) (Hit, bool) {
	if id, ok := c.byExact[query]; ok {
		near = nearest{id: id, sim: 1, found: true, exact: true}
	}
	h, ok := c.settleLocked(near, trace)
	if ok && !near.exact && c.rowEpoch == epoch && c.landing == 0 {
		c.memoizeLocked(query, c.entries[near.id], near.sim)
	}
	return h, ok
}

// Release returns an embedding LookupKeep kept to the pool, for a miss
// that will not fill the cache. Nil is a no-op, on a nil Cache too.
func (c *Cache) Release(qv *embed.Vector) {
	if qv != nil {
		c.emb.ReleaseScratch(qv)
	}
}

// nearest is what the scan half of a lookup hands its settle half: the
// index's closest entry and its similarity, if one scored at least the
// floor the scan was given.
type nearest struct {
	id    vector.ID
	sim   float64
	found bool
	exact bool // id came from byExact, not from a scan
	memo  bool // id and sim came from a memo, not from a scan
}

// nearestTo is the search a lookup's scan half makes, for a query already
// embedded: the index's nearest entry at or above floor — the similarity
// the settle half will require, so the index skips every row that provably
// cannot reach it — holding nothing of the cache's: the index has its own
// read lock, so any number of scans run side by side and beside the other
// callers' bookkeeping. The caller must not hold c.mu.
func (c *Cache) nearestTo(qv embed.Vector, floor float64) nearest {
	hits := c.idx.SearchAbove(qv, 1, floor)
	if len(hits) == 0 {
		return nearest{}
	}
	return nearest{id: hits[0].ID, sim: hits[0].Score, found: true}
}

// settleLocked is the half of a lookup that runs under c.mu, all of it
// O(log n): it ticks the clock, counts the lookup and, when near is at or
// above the hit threshold, charges the hit to its entry. The scan ran
// without the lock, so the entry is looked up again: an id that is gone
// was evicted in between and the lookup is a miss — ids are never reused,
// so it cannot name another entry.
func (c *Cache) settleLocked(near nearest, trace string) (Hit, bool) {
	c.clock++
	c.stats.Lookups++
	c.mLookups.Inc()
	e := c.entries[near.id]
	if !near.found || near.sim < c.threshold || e == nil {
		c.mMisses.Inc()
		return Hit{}, false
	}
	c.touchLocked(e)
	c.stats.Hits++
	if near.exact {
		c.stats.ExactHits++
		c.mHitExact.Inc()
	} else {
		c.mHitSemantic.Inc()
	}
	if near.memo {
		c.stats.MemoHits++
		c.mMemoHits.Inc()
	}
	c.hSimilarity.ObserveWithExemplar(near.sim, trace)
	return Hit{Entry: *e, Similarity: near.sim, Exact: near.exact, Memo: near.memo}, true
}

// touchLocked records a hit on e at the current tick and restores e's
// place in the eviction order.
func (c *Cache) touchLocked(e *Entry) {
	e.Hits++
	e.lastUsed = c.clock
	c.evict.down(e.pos) // both keys only grow
}

// Put inserts a (query, response) pair: Publish, then Index with the
// query embedded here. Re-putting an existing query refreshes its response
// and embeds nothing.
func (c *Cache) Put(query, response string, kind Kind, class Class) {
	c.Index(c.Publish(query, response, kind, class), nil)
}

// Fill is what a put's publish half leaves to its index half: the row to
// add and the evicted row to remove, if the removal falls to this put. A
// re-put leaves nothing.
type Fill struct {
	e      *Entry
	victim *Entry
	// memos: the memo table was not empty at publish, so the row's
	// neighbours' memos must be dropped when it lands.
	memos bool
}

// Publish is a put's first half, all of it under c.mu and O(log n): the
// entry goes into both maps and the eviction heap, so an exact lookup hits
// it from here on, and the victim a full cache gives up comes out of all
// three. It embeds nothing and leaves the index alone — the returned Fill
// must be handed to Index, or the entry never gets a row, a victim's row
// stays behind, and no memo is served or made again (the row counts as
// landing). Re-putting an existing query refreshes its response.
func (c *Cache) Publish(query, response string, kind Kind, class Class) Fill {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if id, ok := c.byExact[query]; ok {
		e := c.entries[id]
		e.Response = response
		e.lastUsed = c.clock
		c.evict.down(e.pos)
		return Fill{}
	}
	c.mPuts.Inc()
	e := &Entry{Query: query, Response: response, Kind: kind, Class: class, lastUsed: c.clock, id: c.nextID}
	c.nextID++
	c.entries[e.id] = e
	c.byExact[query] = e.id
	if old, ok := c.memos[query]; ok {
		c.dropMemoLocked(old) // an exact hit from here on
	}
	c.landing++
	f := Fill{e: e, memos: len(c.memos) > 0}
	// The newcomer joins the eviction heap only after the eviction it
	// causes, which is what exempts it: a cold newcomer is not evicted
	// before it can prove useful.
	if c.capacity > 0 && len(c.entries) > c.capacity {
		if v := c.evictLocked(); v.indexed {
			f.victim = v // else its own index half, still to come, removes it
		}
	}
	c.evict.push(e)
	return f
}

// Index is a put's second half, run outside c.mu: it adds the published
// entry's row from qv — the query's embedding that LookupKeep kept, or,
// when qv is nil, one made here — and removes the victim's row if that
// fell to this put. It takes qv back: the index copies the row, so the
// scratch goes back to the pool. If memos existed at publish, the row's
// neighbours within memoFloor lose theirs (see memoizeLocked). If the
// entry was evicted while its row was being added, the row comes straight
// out again.
func (c *Cache) Index(f Fill, qv *embed.Vector) {
	if f.e != nil {
		if qv == nil {
			qv = c.emb.TextScratch(f.e.Query)
		}
		if err := c.idx.Add(vector.Item{ID: f.e.id, Vec: *qv}); err != nil {
			panic(err) // IDs are unique by construction
		}
		var near []vector.Result
		if f.memos {
			near = c.idx.SearchAbove(*qv, memoNeighbours, c.memoFloor)
		}
		c.mu.Lock()
		f.e.indexed = true
		gone := f.e.gone
		c.landing--
		c.rowEpoch++
		for _, r := range near {
			if e := c.entries[r.ID]; e != nil && e.memoed {
				c.invalidateLocked(e)
			}
		}
		if len(near) == memoNeighbours { // full, the row's own included: there may be more
			c.memoEpoch++
		}
		c.mu.Unlock()
		if gone {
			c.idx.Remove(f.e.id)
		}
	}
	c.emb.ReleaseScratch(qv)
	if f.victim != nil {
		c.idx.Remove(f.victim.id)
	}
}

// memoNeighbours bounds rule 2's search (see memoizeLocked); memoSlack is
// the margin below 2θ² − 1 that covers the float32 scores.
const (
	memoNeighbours = 16
	memoSlack      = 1e-4
)

// memoFloor is the similarity at or above which a landing row can beat a
// memo at threshold θ: cos(2·acos θ) = 2θ² − 1, less memoSlack.
func memoFloor(threshold float64) float64 {
	return 2*threshold*threshold - 1 - memoSlack
}

// memoizeLocked records that query hit e semantically at similarity sim,
// replacing e's memo and query's: an entry holds at most one memo, which
// its eviction drops, so there are never more memos than entries. A memo
// answers a repeat of the text as the scan would, through the same
// settleLocked, without the embedding and the scan. Three rules, all under
// c.mu, keep that exact:
//
//  1. A memo is made only from a scan no row landed during: c.rowEpoch,
//     bumped by every Index, is unchanged since the scan began, and no row
//     is landing (c.landing, counted from Publish to Index). Nor is a memo
//     served while a row is landing: its row may already be scanned.
//  2. A landing row drops only its neighbours' memos. A row N beats a memo
//     s → E only if cos(s, N) ≥ cos(s, E) ≥ θ, so the angles s–N and s–E
//     are at most acos θ and, by the triangle inequality on the sphere,
//     N–E at most 2·acos θ: cos(N, E) ≥ cos(2·acos θ) = 2θ² − 1. When
//     memos existed at publish, Index searches N's row for up to
//     memoNeighbours entries at or above that, less memoSlack for the
//     float32 scores, and drops their memos; a search that fills up may
//     have missed some, so it bumps c.memoEpoch, which kills every older
//     memo.
//  3. A memo older than c.memoEpoch is never served: the lookup drops it
//     and scans. Eviction drops its entry's memo, and Publish the memo of
//     its own query, which is an exact hit from then on.
//
// Nothing walks the table: every step is O(1), or O(memoNeighbours) for
// rule 2's drops.
func (c *Cache) memoizeLocked(query string, e *Entry, sim float64) {
	if old, ok := c.memos[query]; ok {
		c.dropMemoLocked(old)
	}
	if e.memoed {
		c.dropMemoLocked(e)
	}
	c.memos[query] = e
	e.memoed, e.memoEpoch, e.memoKey, e.memoSim = true, c.memoEpoch, query, sim
}

// dropMemoLocked deletes e's memo, which must exist.
func (c *Cache) dropMemoLocked(e *Entry) {
	delete(c.memos, e.memoKey)
	e.memoed, e.memoKey = false, ""
}

// invalidateLocked drops e's memo because a row landed that could beat it.
func (c *Cache) invalidateLocked(e *Entry) {
	c.dropMemoLocked(e)
	c.mMemoInvalidations.Inc()
}

// evictLocked takes the entry the configured policy values least, the root
// of the eviction heap, out of the heap and the maps — the one way out of
// the cache — and marks it gone. Its row is left to the caller's index
// half, or to its own if that has not run yet.
func (c *Cache) evictLocked() *Entry {
	e := c.evict.popRoot()
	delete(c.byExact, e.Query)
	delete(c.entries, e.id)
	if e.memoed {
		c.dropMemoLocked(e)
	}
	e.gone = true
	c.stats.Evictions++
	c.mEvictions.Inc()
	// Evictions happen under the put-caller's lock but are cheap to log
	// (ring write, no I/O); they have no single owning request.
	c.log.Emit(obs.Debug, "semcache_evict", "policy", c.evict.policy.String(), "hits", e.Hits)
	return e
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

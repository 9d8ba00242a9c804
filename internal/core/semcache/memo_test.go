package semcache

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/obs"
)

// familyWords are the words of memoPrompt's family: position i holds
// familyWords[0][i], or familyWords[1][i] when the mask swaps it.
var familyWords = func() [2][24]string {
	var w [2][24]string
	r := rand.New(rand.NewSource(1))
	for side, first := range []byte{'w', 'v'} {
		for i := range w[side] {
			w[side][i] = string([]byte{first, byte('a' + r.Intn(26)), byte('a' + r.Intn(26)), byte('a' + r.Intn(26))})
		}
	}
	return w
}()

// memoPrompt is a prompt of a family built so that a landing row can beat
// a memo: 24 words, of which bit i of mask swaps word i for another. One
// swap keeps two prompts at about 0.973, just above the threshold of 0.97,
// and four at about 0.888, inside 2·acos 0.97 (cosine 0.882); a suffix
// moves a prompt to about 0.99 of itself. So a put one swap or one suffix
// from a memoized query often beats the memo's entry, and a put five swaps
// away is outside rule 2's search.
func memoPrompt(mask int, suffix string) string {
	w := make([]string, 0, 25)
	for i := range familyWords[0] {
		w = append(w, familyWords[(mask>>i)&1][i])
	}
	return strings.Join(w, " ") + suffix
}

// memoCache is newModelCache at the proxy's threshold of 0.97.
func memoCache(capacity int, policy Policy) *Cache {
	reg := obs.NewRegistry()
	return New(Config{
		Embedder: embed.New(embed.DefaultDim), Capacity: capacity, Policy: policy, Threshold: 0.97,
		Obs: reg, Log: obs.NewLogger(obs.NewEventLog(64), obs.Debug, reg),
	})
}

// randomMemoPrompt draws from the family over swaps of the first five
// words, with or without a suffix: 96 prompts.
func randomMemoPrompt(r *rand.Rand) string {
	return memoPrompt(r.Intn(32), []string{"", " again", "?"}[r.Intn(3)])
}

// Every memo hit is what a fresh scan returns: the same entry and the
// same similarity bits. Seeded sequences of puts, repeated lookups and
// lookups of texts asked once run single-file into a small cache at 0.97 over
// memoPrompt's family, so puts evict, memos are made, and puts land near
// memoized queries and beat their entries — which only rule 2's
// neighbour search catches.
func TestMemoHitEqualsFreshScan(t *testing.T) {
	for _, policy := range []Policy{LRU, Weighted} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", policy, seed), func(t *testing.T) {
				c := memoCache(8, policy)
				r := rand.New(rand.NewSource(seed))
				queries := make([]string, 24) // a few texts, asked again and again
				for i := range queries {
					queries[i] = randomMemoPrompt(r)
				}
				for step := 0; step < 3000; step++ {
					switch op := r.Intn(20); {
					case op < 3:
						q := randomMemoPrompt(r)
						c.Put(q, answerTo(q, step), Original, Class(r.Intn(2)))
					case op < 19:
						q := queries[r.Intn(len(queries))]
						h, ok := c.Lookup(q)
						if !ok || !h.Memo {
							continue
						}
						want := c.nearestTo(c.emb.Text(q), c.threshold)
						if !want.found || want.id != h.Entry.id || math.Float64bits(want.sim) != math.Float64bits(h.Similarity) {
							t.Fatalf("step %d: the memo answered %q with %q at %v; a scan finds entry %d at %v (found %v)",
								step, q, h.Entry.Query, h.Similarity, want.id, want.sim, want.found)
						}
						if h.Exact || !strings.HasPrefix(h.Entry.Response, h.Entry.Query+" => ") {
							t.Fatalf("step %d: memo hit %+v", step, h)
						}
					default:
						c.Lookup(randomMemoPrompt(r))
					}
					checkEvictionInvariants(t, c)
				}
				st := c.Stats()
				t.Logf("%+v, memos invalidated %d", st, c.mMemoInvalidations.Value())
				if st.MemoHits < 50 || c.mMemoInvalidations.Value() < 10 || st.Evictions == 0 {
					t.Fatalf("%+v, %d memos invalidated: too tame to test the memo", st, c.mMemoInvalidations.Value())
				}
				if got := c.mMemoHits.Value(); got != int64(st.MemoHits) || got > c.mHitSemantic.Value() {
					t.Errorf("memo hits counted %d, stats %d, semantic hits %d", got, st.MemoHits, c.mHitSemantic.Value())
				}
			})
		}
	}
}

// A row that lands while a lookup's scan is out makes no memo of that
// scan: the scan may have passed the row's place before it landed. The
// lookup's two halves run with a put between them — a whole put, or a
// publish with the index half after the settle — and the row is a
// better match than the entry the scan found. Afterwards the query must
// resolve to the new row, first by a scan and then from its memo.
func TestNoMemoFromAScanARowLandedDuring(t *testing.T) {
	q := memoPrompt(0, "")
	for _, tc := range []struct {
		name string
		put  func(c *Cache, settle func())
	}{
		{"landed", func(c *Cache, settle func()) {
			c.Put(memoPrompt(0, " again"), "better", Original, Reuse)
			settle()
		}},
		{"landing", func(c *Cache, settle func()) {
			f := c.Publish(memoPrompt(0, " again"), "better", Original, Reuse)
			settle()
			c.Index(f, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := memoCache(0, LRU)
			c.Put(memoPrompt(1, ""), "worse", Original, Reuse)
			c.mu.Lock()
			epoch := c.rowEpoch
			c.mu.Unlock()
			near := c.scan(q, c.threshold)
			var first Hit
			tc.put(c, func() {
				c.mu.Lock()
				first, _ = c.settleScanLocked(q, near, epoch, "")
				c.mu.Unlock()
			})
			if first.Entry.Response != "worse" {
				t.Fatalf("the scan that began before the put found %+v: premise broken", first)
			}
			for i, wantMemo := range []bool{false, true} {
				h, ok := c.Lookup(q)
				if !ok || h.Entry.Response != "better" || h.Memo != wantMemo {
					t.Fatalf("lookup %d after the put = %+v, %v; want the new row, memo %v", i+1, h, ok, wantMemo)
				}
			}
		})
	}
}

// No memo is served while a row is landing: between a put's publish and
// its index half the lookup scans, and the memo is kept for afterwards
// only if the landing row is not its entry's neighbour.
func TestNoMemoServedWhileARowLands(t *testing.T) {
	c := memoCache(0, LRU)
	q := memoPrompt(0, "?")
	c.Put(memoPrompt(0, ""), "answer", Original, Reuse)
	for i := 0; i < 2; i++ {
		c.Lookup(q)
	}
	if c.Stats().MemoHits != 1 {
		t.Fatalf("stats %+v: the repeat was not a memo hit, premise broken", c.Stats())
	}
	f := c.Publish(memoPrompt(255, " far away"), "other", Original, Reuse)
	if h, ok := c.Lookup(q); !ok || h.Memo || h.Entry.Response != "answer" {
		t.Errorf("lookup while a row lands = %+v, %v; want a scan hit", h, ok)
	}
	c.Index(f, nil)
	if h, ok := c.Lookup(q); !ok || !h.Memo || h.Entry.Response != "answer" {
		t.Errorf("lookup after a distant row landed = %+v, %v; want a memo hit", h, ok)
	}
}

// Under churn from concurrent callers — puts that evict, repeated
// paraphrases that make memos, puts that land near them — the memo table
// never holds more memos than the cache holds entries, and each memo is
// its live entry's one memo (checkInvariants), whenever the lock is free.
func TestMemosNeverOutnumberEntries(t *testing.T) {
	const capacity = 8
	c := memoCache(capacity, Weighted)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for step := 0; step < 800; step++ {
				q := randomMemoPrompt(r)
				if r.Intn(3) == 0 {
					c.Put(q, answerTo(q, step), Original, Reuse)
					continue
				}
				for i := 0; i < 3; i++ {
					if h, ok := c.Lookup(q); ok && !strings.HasPrefix(h.Entry.Response, h.Entry.Query+" => ") {
						t.Errorf("the hit on %q carried the answer %q", h.Entry.Query, h.Entry.Response)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		checkInvariantsInFlight(t, c)
	}
	wg.Wait()
	checkEvictionInvariants(t, c)
	if st := c.Stats(); st.MemoHits == 0 || st.Evictions == 0 {
		t.Errorf("stats %+v: the run made no memo hits or no evictions", st)
	}
}

// A landing row with more neighbours within rule 2's floor than the
// search returns may have a neighbour the search missed, so it kills
// every memo: a memo on an entry nowhere near the rows puts afterwards
// must be made again, by a scan.
func TestTruncatedNeighbourSearchKillsEveryMemo(t *testing.T) {
	c := memoCache(0, LRU)
	far, _ := wordsQuery(1)
	c.Put(far, "far", Original, Reuse)
	q := far + "?"
	for i := 0; i < 2; i++ {
		c.Lookup(q)
	}
	if c.Stats().MemoHits != 1 {
		t.Fatalf("stats %+v: the repeat was not a memo hit, premise broken", c.Stats())
	}
	// Three swaps at most: every pair of these is within the floor.
	for mask := 0; mask < 8; mask++ {
		for _, suffix := range []string{"", " again", "?"} {
			c.Put(memoPrompt(mask, suffix), "near", Original, Reuse)
		}
	}
	if c.memoEpoch == 0 {
		t.Fatalf("24 rows within the floor of each other never filled a neighbour search of %d", memoNeighbours)
	}
	for i, wantMemo := range []bool{false, true} {
		if h, ok := c.Lookup(q); !ok || h.Memo != wantMemo || h.Entry.Response != "far" {
			t.Fatalf("lookup %d after the puts = %+v, %v; want a hit on the far entry, memo %v", i+1, h, ok, wantMemo)
		}
	}
}

package semcache

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/embed"
)

// An entry evicted before or after its row lands loses the row exactly
// once: at capacity 1, B's publish evicts A, and whichever of A's index
// half and B's runs second takes A's row out. Afterwards the index holds
// one row per entry, A's paraphrase misses and B's hits.
func TestFillHandshake(t *testing.T) {
	for _, tc := range []struct {
		name string
		// aIndexedFirst: A's index half runs before B's publish evicts A,
		// so B's index half removes A's row; otherwise A's own does.
		aIndexedFirst bool
	}{
		{"evicted before indexed", false},
		{"evicted after indexed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newModelCache(1, LRU)
			a, aPara := wordsQuery(1)
			b, bPara := wordsQuery(2)
			fa := c.Publish(a, answerTo(a, 1), Original, Reuse)
			if tc.aIndexedFirst {
				c.Index(fa, nil)
			}
			fb := c.Publish(b, answerTo(b, 2), Original, Reuse)
			if _, ok := c.byExact[a]; ok || !fa.e.gone {
				t.Fatal("B's publish did not evict A: premise broken")
			}
			if owesA := fb.victim != nil; owesA != tc.aIndexedFirst {
				t.Fatalf("B's fill owes A's row removal: %v, want %v", owesA, tc.aIndexedFirst)
			}
			c.Index(fb, nil)
			if !tc.aIndexedFirst {
				c.Index(fa, nil)
			}
			if _, ok := c.idx.Get(fa.e.id); ok {
				t.Error("A's row is still in the index")
			}
			if c.idx.Len() != c.Len() || c.Len() != 1 {
				t.Errorf("index holds %d rows for %d entries, want 1 and 1", c.idx.Len(), c.Len())
			}
			checkEvictionInvariants(t, c)
			if h, ok := c.Lookup(aPara); ok {
				t.Errorf("a paraphrase of the evicted A hit %q", h.Entry.Query)
			}
			if h, ok := c.Lookup(bPara); !ok || h.Exact || h.Entry.Query != b {
				t.Errorf("a paraphrase of B = %+v, %v; want a semantic hit on B", h, ok)
			}
		})
	}
}

// Fills split the way the proxy splits them — LookupKeep, Publish, a
// yield, Index with the kept embedding — from four goroutines into a
// small full cache, so entries are often evicted between their halves.
// Once they stop, every row in the index is a live entry's and every
// entry has one, and every lookup was counted once.
func TestFillHandshakeConcurrent(t *testing.T) {
	const capacity = 4
	c := newModelCache(capacity, LRU)
	for i := 0; i < capacity; i++ {
		query, _ := wordsQuery(i)
		c.Put(query, answerTo(query, i), Original, Reuse)
	}
	var (
		wg      sync.WaitGroup
		lookups atomic.Int64
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for step := 0; step < 400; step++ {
				query, paraphrase := wordsQuery(r.Intn(40))
				lookups.Add(2)
				if h, ok := c.Lookup(paraphrase); ok && !strings.HasPrefix(h.Entry.Response, h.Entry.Query+" => ") {
					t.Errorf("the hit on %q carried the answer %q", h.Entry.Query, h.Entry.Response)
					return
				}
				if _, ok, qv := c.LookupKeep(query, ""); !ok {
					f := c.Publish(query, answerTo(query, step), Original, Class(r.Intn(2)))
					runtime.Gosched()
					c.Index(f, qv)
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
		t.Error("no evictions: the run never filled the cache")
	}
	hits, misses := c.mHitExact.Value()+c.mHitSemantic.Value(), c.mMisses.Value()
	if n := lookups.Load(); int64(st.Lookups) != n || hits+misses != n || int64(st.Hits) != hits {
		t.Errorf("%d lookups made; stats %+v, hits %d, misses %d", n, st, hits, misses)
	}
}

// The row a miss-fed fill indexes is the query's own embedding, bit for
// bit, while other callers churn the scratch pool: Index must not hand
// the kept vector back before the index has copied it. The pool is per
// P, so a churner rarely draws that vector in time to corrupt the row;
// under -race the detector reports the overlap whenever it does.
func TestKeptEmbeddingIsTheIndexedRow(t *testing.T) {
	c := newModelCache(0, LRU)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.emb.ReleaseScratch(c.emb.TextScratch(fmt.Sprintf("churn %d %d", g, i)))
			}
		}(g)
	}
	var fills []Fill
	for i := 0; i < 200; i++ {
		query, _ := wordsQuery(i)
		_, ok, qv := c.LookupKeep(query, "")
		if ok || qv == nil {
			t.Fatalf("lookup %d: hit %v, kept %v; want a miss that keeps its embedding", i, ok, qv != nil)
		}
		f := c.Publish(query, "answer", Original, Reuse)
		c.Index(f, qv)
		fills = append(fills, f)
	}
	close(stop)
	wg.Wait()
	e := embed.New(embed.DefaultDim)
	for _, f := range fills {
		row, ok := c.idx.Get(f.e.id)
		if !ok {
			t.Fatalf("%q has no row", f.e.Query)
		}
		want := e.Text(f.e.Query)
		for j := range want {
			if row.Vec[j] != want[j] {
				t.Fatalf("%q: row[%d] = %v, its embedding has %v", f.e.Query, j, row.Vec[j], want[j])
			}
		}
	}
	checkEvictionInvariants(t, c)
}

// wordsQuery returns the i-th of a pool of queries of random words, far
// enough apart that none hits another at threshold 0.6, and a paraphrase
// that hits it.
func wordsQuery(i int) (query, paraphrase string) {
	r := rand.New(rand.NewSource(int64(i)))
	words := make([]string, 8)
	for w := range words {
		b := make([]byte, 5+r.Intn(4))
		for j := range b {
			b[j] = byte('a' + r.Intn(26))
		}
		words[w] = string(b)
	}
	query = strings.Join(words, " ")
	return query, "tell me " + query
}

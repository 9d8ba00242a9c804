package semcache

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/obs"
)

// wordPrompt is prompt i of a corpus shaped like the end-to-end benchmark's:
// twelve pronounceable words drawn independently per prompt, then a
// reference number, so two prompts share almost no features. It is the
// shape where a floored scan skips nearly every row.
func wordPrompt(i int) string {
	r := rand.New(rand.NewSource(int64(i)))
	syllables := []string{"ba", "dre", "fi", "glo", "ku", "ma", "ne", "pri", "so", "tu", "vai", "zou", "rin", "lex", "thar"}
	var b strings.Builder
	for w := 0; w < 12; w++ {
		for s := 2 + r.Intn(2); s > 0; s-- {
			b.WriteString(syllables[r.Intn(len(syllables))])
		}
		b.WriteByte(' ')
	}
	b.WriteString("ref ")
	b.WriteString(strconv.Itoa(i))
	return b.String()
}

// floorCache returns a cache at the proxy's 0.97 threshold holding n
// wordPrompt entries — more than the index's quantization threshold, so
// lookups run the quantized scan and its bound.
func floorCache(n int) *Cache {
	c := New(Config{Embedder: embed.New(embed.DefaultDim), Threshold: 0.97, Obs: obs.NewRegistry()})
	for i := 0; i < n; i++ {
		q := wordPrompt(i)
		c.Put(q, answerTo(q, i), Original, Reuse)
	}
	return c
}

// A lookup's scan takes the similarity it must reach as the index's floor.
// That changes no lookup: on wordPrompt queries — paraphrases that hit,
// near misses that reach only the memo's neighbour floor 2θ² − 1,
// strangers — every hit names the entry the unfloored scan names with the
// same similarity bits, at the hit threshold and at the neighbour floor,
// and hits and misses count exactly as the unfloored scan predicts.
func TestFloorChangesNoLookup(t *testing.T) {
	const n = 3000
	c := floorCache(n)
	var queries []string
	for i := 0; i < 200; i++ {
		words := strings.Fields(wordPrompt(i * 13 % n))
		other := strings.Fields(wordPrompt(n + i))
		queries = append(queries,
			strings.Join(words, " ")+"?",                                  // a paraphrase: a hit
			strings.Join(append(other[:3:3], words[3:]...), " "),          // three words swapped
			strings.Join(append(other[:7:7], words[7:]...), " "),          // seven swapped
			strings.Join(words[:len(words)-2], " "),                       // the reference dropped
			strings.Join(append(words[:6:6], other[6:]...), " ")+" again", // half of it
			strings.Join(other, " "),                                      // a stranger
		)
	}
	var hits, misses, nearMisses int
	for _, q := range queries {
		free := c.scan(q, math.Inf(-1))
		if !free.found {
			t.Fatalf("unfloored scan of %q found nothing in a full cache", q)
		}
		if free.sim >= c.memoFloor && free.sim < c.threshold {
			nearMisses++
		}
		for _, floor := range []float64{c.threshold, c.memoFloor} {
			got := c.scan(q, floor)
			want := free.sim >= floor
			if got.found != want || want && (got.id != free.id || math.Float64bits(got.sim) != math.Float64bits(free.sim)) {
				t.Fatalf("%q at floor %v: floored scan %+v, unfloored %+v", q, floor, got, free)
			}
		}
		entry := c.entries[free.id].Query
		h, ok := c.Lookup(q)
		if ok != (free.sim >= c.threshold) || ok && (h.Entry.Query != entry || math.Float64bits(h.Similarity) != math.Float64bits(free.sim)) {
			t.Fatalf("Lookup(%q) = %+v, %v; the unfloored scan found %q at %v", q, h, ok, entry, free.sim)
		}
		if ok {
			hits++
		} else {
			misses++
		}
	}
	t.Logf("%d hits, %d misses, %d near misses", hits, misses, nearMisses)
	if hits == 0 || misses == 0 || nearMisses == 0 {
		t.Fatalf("%d hits, %d misses, %d near misses: the queries do not reach both sides of both floors", hits, misses, nearMisses)
	}
	if st := c.Stats(); st.Lookups != len(queries) || st.Hits != hits || c.mMisses.Value() != int64(misses) {
		t.Errorf("stats %+v, misses %d; want %d lookups, %d hits, %d misses", st, c.mMisses.Value(), len(queries), hits, misses)
	}
}

// A semantic lookup in a quantized cache allocates only the index's
// one-result slice: the floored scan adds nothing to it. Each run asks a
// text not asked before, so every hit scans rather than reading a memo. A
// memo hit allocates nothing.
func TestFlooredLookupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers, so lookups allocate more under -race")
	}
	const runs = 200
	c := floorCache(2500)
	hits, misses := make([]string, runs+1), make([]string, runs+1)
	for i := range hits {
		hits[i], misses[i] = wordPrompt(i)+"?", wordPrompt(1<<20+i)
	}
	for _, qs := range [][]string{hits, misses} {
		n := 0
		if got := testing.AllocsPerRun(runs, func() { c.Lookup(qs[n]); n++ }); got > 1 {
			t.Errorf("Lookup(%q) allocates %v times, want at most 1", qs[0], got)
		}
	}
	if st := c.Stats(); st.Hits != runs+1 || st.MemoHits != 0 {
		t.Errorf("stats %+v: want every paraphrase a hit, none from a memo", st)
	}
	if got := testing.AllocsPerRun(runs, func() { c.Lookup(hits[0]) }); got > 0 {
		t.Errorf("a memo hit allocates %v times, want 0", got)
	}
	if c.Stats().MemoHits != runs+1 {
		t.Errorf("stats %+v: the repeats were not memo hits", c.Stats())
	}
}

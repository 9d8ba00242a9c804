package perf

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/embed"
	"repro/internal/vector"
)

// TestQuantizedRecallOnPerfCorpus gates the int8-quantized scan measured
// by the vector_flat_search_quantized benchmark: over the same corpus the
// kernel benchmarks use (corpusSize rows, so the index quantizes), the
// quantized prefilter must keep recall@10 against brute force at 0.95 or
// better. If quantization error ever grows past what the shortlist absorbs,
// this fails before the benchmark numbers quietly degrade in quality.
func TestQuantizedRecallOnPerfCorpus(t *testing.T) {
	e := embed.New(embed.DefaultDim)
	items := buildCorpus(e)

	quant := vector.NewFlat(e.Dim(), vector.Cosine)
	if err := quant.Add(items...); err != nil {
		t.Fatal(err)
	}

	const k = 10
	const queries = 64
	var matched, total int
	for qi := 0; qi < queries; qi++ {
		q := e.Text(perfText(qi * 31 % corpusSize))
		truth := make(map[vector.ID]bool, k)
		for _, r := range bruteTopK(items, q, k) {
			truth[r.ID] = true
		}
		for _, r := range quant.Search(q, k) {
			if truth[r.ID] {
				matched++
			}
		}
		total += k
	}
	recall := float64(matched) / float64(total)
	t.Logf("quantized recall@%d over %d queries: %.4f", k, queries, recall)
	if recall < 0.95 {
		t.Errorf("quantized recall@%d = %.4f, want >= 0.95", k, recall)
	}
}

// bruteTopK is the reference: the cosine of q with every item, the best k
// first, ties to the lower ID.
func bruteTopK(items []vector.Item, q embed.Vector, k int) []vector.Result {
	rs := make([]vector.Result, len(items))
	for i, it := range items {
		rs[i] = vector.Result{ID: it.ID, Score: vector.Cosine.Score(q, it.Vec)}
	}
	slices.SortFunc(rs, func(a, b vector.Result) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.ID, b.ID))
	})
	return rs[:min(k, len(rs))]
}

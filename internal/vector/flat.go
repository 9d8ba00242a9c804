package vector

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/embed"
)

// Flat is a brute-force exact index: Search scans every stored vector. It is
// the accuracy baseline the approximate indexes are validated against, and
// the right choice for small collections such as the semantic cache.
//
// Vectors live in a contiguous column store (scan.go); once the collection
// reaches quantAutoMin rows an int8-quantized prefilter ranks the scan and
// only a shortlist is rescored exactly, so returned scores are always exact.
// Unfiltered scans over large collections shard across goroutines when
// GOMAXPROCS allows. Both behaviors are tunable via FlatOptions.
// Flat is safe for concurrent use: searches share a read lock and run side
// by side, Add and Remove take it exclusively — which is the only exclusion
// the semantic cache's lookups rely on, since they search without holding a
// lock of their own. A search's one allocation is the slice it returns.
type Flat struct {
	mu          sync.RWMutex
	metric      Metric
	dim         int
	store       *colStore
	rows        []flatRow // aligned with store rows
	byID        map[ID]int
	parallelMin int
	// rowID maps a store row index to its item ID. Bound once here: a
	// method value at the call would be an allocation per search.
	rowID func(int) ID
}

// flatRow is what Flat keeps per row beside the column store, which holds
// the only copy of the vector.
type flatRow struct {
	id    ID
	attrs map[string]string
}

// FlatOption configures a Flat index at construction.
type FlatOption func(*flatConfig)

type flatConfig struct {
	mode        quantMode
	parallelMin int
}

// Exact disables the int8-quantized prefilter: every scan scores every row
// with the full-precision kernels regardless of collection size.
func Exact() FlatOption { return func(c *flatConfig) { c.mode = quantOff } }

// Quantized maintains int8 codes from the first row instead of waiting for
// the collection to reach the automatic threshold.
func Quantized() FlatOption { return func(c *flatConfig) { c.mode = quantOn } }

// ParallelMin sets the collection size at which unfiltered scans shard
// across goroutines (default flatParallelMin). n <= 0 disables sharding.
func ParallelMin(n int) FlatOption { return func(c *flatConfig) { c.parallelMin = n } }

// NewFlat returns an empty flat index over dim-dimensional vectors.
func NewFlat(dim int, metric Metric, opts ...FlatOption) *Flat {
	if dim <= 0 {
		panic("vector: non-positive dimension")
	}
	cfg := flatConfig{mode: quantAuto, parallelMin: flatParallelMin}
	for _, o := range opts {
		o(&cfg)
	}
	f := &Flat{
		metric:      metric,
		dim:         dim,
		store:       newColStore(dim, cfg.mode, metric == Cosine),
		byID:        make(map[ID]int),
		parallelMin: cfg.parallelMin,
	}
	f.rowID = func(i int) ID { return f.rows[i].id }
	return f
}

// Add implements Index.
func (f *Flat) Add(items ...Item) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, it := range items {
		if len(it.Vec) != f.dim {
			return fmt.Errorf("%w: item %d has dim %d, index dim %d", ErrDimMismatch, it.ID, len(it.Vec), f.dim)
		}
		if _, ok := f.byID[it.ID]; ok {
			return fmt.Errorf("%w: %d", ErrDuplicateID, it.ID)
		}
		f.byID[it.ID] = len(f.rows)
		f.rows = append(f.rows, flatRow{id: it.ID, attrs: it.Attrs})
		f.store.appendRow(it.Vec)
	}
	return nil
}

// Remove deletes the item with the given ID, reporting whether it existed.
func (f *Flat) Remove(id ID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.byID[id]
	if !ok {
		return false
	}
	last := len(f.rows) - 1
	f.rows[i] = f.rows[last]
	f.byID[f.rows[i].id] = i
	f.rows[last] = flatRow{} // drop the attrs reference
	f.rows = f.rows[:last]
	f.store.swapRemove(i)
	delete(f.byID, id)
	return true
}

// Get returns the stored item for id. Its Vec is a copy of the store row.
func (f *Flat) Get(id ID) (Item, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	i, ok := f.byID[id]
	if !ok {
		return Item{}, false
	}
	return Item{ID: id, Vec: cloneVec(f.store.row(i)), Attrs: f.rows[i].attrs}, true
}

// attrs returns the attributes stored for id, without copying its vector.
func (f *Flat) attrs(id ID) (map[string]string, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	i, ok := f.byID[id]
	if !ok {
		return nil, false
	}
	return f.rows[i].attrs, true
}

// each calls fn for every stored row, in row order, under the read lock.
// vec aliases the store and is valid only during the call; fn must not
// call back into f.
func (f *Flat) each(fn func(i int, id ID, attrs map[string]string, vec embed.Vector)) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i, r := range f.rows {
		fn(i, r.id, r.attrs, f.store.row(i))
	}
}

// Search implements Index: SearchAbove with no floor.
func (f *Flat) Search(q embed.Vector, k int) []Result {
	return f.SearchAbove(q, k, math.Inf(-1))
}

// SearchAbove is Search restricted to results scoring at least floor: the
// best k of the rows that do, best first. A quantized Cosine scan skips a
// row before reading its whole code when a bound on its exact score proves
// it below floor, so a high floor — a cache's hit threshold — makes the
// scan cheap where few rows come near it. See DESIGN.md "Quantized scans".
func (f *Flat) SearchAbove(q embed.Vector, k int, floor float64) []Result {
	return f.search(q, k, floor, nil)
}

// search is SearchAbove restricted to items whose attributes satisfy
// keep. A nil keep admits everything; filtered scans run serially and
// score exactly. keep must be a pure predicate: a quantized scan asks it
// only about the rows that could still enter the result.
func (f *Flat) search(q embed.Vector, k int, floor float64, keep func(attrs map[string]string) bool) []Result {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(q) != f.dim {
		// Mismatched query dimensionality keeps the historical per-metric
		// semantics (Cosine scores 0, Dot/L2 use the common prefix)
		// instead of feeding the column kernels an undefined layout.
		t := newTopK(k)
		for i, r := range f.rows {
			if keep != nil && !keep(r.attrs) {
				continue
			}
			t.offer(Result{ID: r.id, Score: f.metric.Score(q, f.store.row(i))})
		}
		return above(t.results(), floor)
	}
	var keepRow func(int) bool
	if keep != nil {
		keepRow = func(i int) bool { return keep(f.rows[i].attrs) }
	}
	return f.store.search(f.metric, q, k, floor, f.rowID, keepRow, f.parallelMin)
}

// Len implements Index.
func (f *Flat) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.rows)
}

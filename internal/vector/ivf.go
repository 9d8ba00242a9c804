package vector

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/embed"
)

// IVF is an inverted-file index: vectors are partitioned into nlist cells by
// a k-means coarse quantizer, and a query probes only the nprobe nearest
// cells. It trades a little recall for large scan savings on big
// collections — the paper's multi-modal data lake scenario.
//
// Each cell is a contiguous column store (scan.go), so probing a cell runs
// the same SIMD scan kernels as the flat index, and a cell that reaches
// quantAutoMin rows keeps int8 codes and scans with the quantized prefilter
// and exact rescoring.
//
// IVF is safe for concurrent use. The quantizer is trained on the first
// search from the vectors added so far; later additions are assigned to
// existing cells.
type IVF struct {
	mu      sync.RWMutex
	metric  Metric
	dim     int
	nlist   int
	nprobe  int
	seed    int64
	trained bool

	centroids []embed.Vector
	cells     []ivfCell
	byID      map[ID]struct{}
	pending   []Item // items added before training
}

// ivfCell is one inverted list: a column store plus the item ID per row.
type ivfCell struct {
	store *colStore
	ids   []ID
}

// IVFConfig parameterizes an IVF index.
type IVFConfig struct {
	Dim    int
	Metric Metric
	// NList is the number of k-means cells. Defaults to 16.
	NList int
	// NProbe is how many cells a query scans. Defaults to 4.
	NProbe int
	// Seed drives k-means initialization; fixed for reproducibility.
	Seed int64
}

// NewIVF returns an empty IVF index.
func NewIVF(cfg IVFConfig) *IVF {
	if cfg.Dim <= 0 {
		panic("vector: non-positive dimension")
	}
	if cfg.NList <= 0 {
		cfg.NList = 16
	}
	if cfg.NProbe <= 0 {
		cfg.NProbe = 4
	}
	if cfg.NProbe > cfg.NList {
		cfg.NProbe = cfg.NList
	}
	return &IVF{
		metric: cfg.Metric,
		dim:    cfg.Dim,
		nlist:  cfg.NList,
		nprobe: cfg.NProbe,
		seed:   cfg.Seed,
		byID:   make(map[ID]struct{}),
	}
}

// Add implements Index.
func (x *IVF) Add(items ...Item) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, it := range items {
		if len(it.Vec) != x.dim {
			return fmt.Errorf("%w: item %d has dim %d, index dim %d", ErrDimMismatch, it.ID, len(it.Vec), x.dim)
		}
		if _, ok := x.byID[it.ID]; ok {
			return fmt.Errorf("%w: %d", ErrDuplicateID, it.ID)
		}
		x.byID[it.ID] = struct{}{}
		if !x.trained {
			x.pending = append(x.pending, it)
			continue
		}
		c := x.nearestCentroidLocked(it.Vec)
		x.cells[c].store.appendRow(it.Vec)
		x.cells[c].ids = append(x.cells[c].ids, it.ID)
	}
	return nil
}

// trainLocked runs k-means over the pending vectors and assigns them to
// cells, once.
func (x *IVF) trainLocked() {
	if x.trained {
		return
	}
	n := len(x.pending)
	k := x.nlist
	if k > n {
		k = n
	}
	if k == 0 {
		k = 1
	}
	x.centroids = kmeans(x.pending, k, x.dim, x.seed)
	x.cells = make([]ivfCell, len(x.centroids))
	for i := range x.cells {
		x.cells[i].store = newColStore(x.dim, false)
	}
	for _, it := range x.pending {
		c := x.nearestCentroidLocked(it.Vec)
		x.cells[c].store.appendRow(it.Vec)
		x.cells[c].ids = append(x.cells[c].ids, it.ID)
	}
	x.pending = nil
	x.trained = true
}

// nearestCentroidLocked returns the index of the centroid closest to v by
// Euclidean distance (the standard IVF assignment regardless of the search
// metric). Squared distance ranks identically and skips the square root.
func (x *IVF) nearestCentroidLocked(v embed.Vector) int {
	best, bestD := 0, embed.SqL2(v, x.centroids[0])
	for i := 1; i < len(x.centroids); i++ {
		if d := embed.SqL2(v, x.centroids[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Search implements Index.
func (x *IVF) Search(q embed.Vector, k int) []Result {
	x.mu.Lock()
	x.trainLocked()
	x.mu.Unlock()

	x.mu.RLock()
	defer x.mu.RUnlock()
	if len(x.centroids) == 0 {
		return nil
	}
	// Rank cells by centroid distance, probe the best nprobe.
	type cd struct {
		cell int
		d    float64
	}
	order := make([]cd, len(x.centroids))
	for i, c := range x.centroids {
		order[i] = cd{i, embed.SqL2(q, c)}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].d < order[j].d })
	probes := x.nprobe
	if probes > len(order) {
		probes = len(order)
	}
	t := newTopK(k)
	for _, o := range order[:probes] {
		cell := &x.cells[o.cell]
		if cell.store.n == 0 {
			continue
		}
		if len(q) != x.dim {
			// Historical per-metric semantics for mismatched queries.
			for i := 0; i < cell.store.n; i++ {
				t.offer(Result{ID: cell.ids[i], Score: x.metric.Score(q, cell.store.row(i))})
			}
			continue
		}
		ids := cell.ids
		for _, r := range cell.store.search(x.metric, q, k, math.Inf(-1), func(i int) ID { return ids[i] }, nil) {
			t.offer(r)
		}
	}
	return t.results()
}

// Len implements Index.
func (x *IVF) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.byID)
}

// kmeans clusters the item vectors into k centroids with Lloyd's algorithm,
// k-means++-style seeding and a fixed iteration budget.
func kmeans(items []Item, k, dim int, seed int64) []embed.Vector {
	rng := rand.New(rand.NewSource(seed))
	if len(items) == 0 {
		return []embed.Vector{make(embed.Vector, dim)}
	}
	// Seeding: first centroid uniform, the rest proportional to squared
	// distance from the nearest chosen centroid (k-means++).
	cents := make([]embed.Vector, 0, k)
	cents = append(cents, cloneVec(items[rng.Intn(len(items))].Vec))
	d2 := make([]float64, len(items))
	for len(cents) < k {
		var sum float64
		for i, it := range items {
			best := embed.SqL2(it.Vec, cents[0])
			for _, c := range cents[1:] {
				if d := embed.SqL2(it.Vec, c); d < best {
					best = d
				}
			}
			d2[i] = best
			sum += d2[i]
		}
		if sum == 0 {
			cents = append(cents, cloneVec(items[rng.Intn(len(items))].Vec))
			continue
		}
		r := rng.Float64() * sum
		pick := len(items) - 1
		for i, d := range d2 {
			r -= d
			if r <= 0 {
				pick = i
				break
			}
		}
		cents = append(cents, cloneVec(items[pick].Vec))
	}
	// Lloyd iterations.
	assign := make([]int, len(items))
	for iter := 0; iter < 25; iter++ {
		changed := false
		for i, it := range items {
			best, bestD := 0, embed.SqL2(it.Vec, cents[0])
			for c := 1; c < len(cents); c++ {
				if d := embed.SqL2(it.Vec, cents[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, len(cents))
		next := make([]embed.Vector, len(cents))
		for c := range next {
			next[c] = make(embed.Vector, dim)
		}
		for i, it := range items {
			c := assign[i]
			counts[c]++
			for j, v := range it.Vec {
				next[c][j] += v
			}
		}
		for c := range next {
			if counts[c] == 0 {
				// Re-seed empty cells from a random item.
				next[c] = cloneVec(items[rng.Intn(len(items))].Vec)
				continue
			}
			inv := float32(1 / float64(counts[c]))
			for j := range next[c] {
				next[c][j] *= inv
			}
		}
		cents = next
	}
	return cents
}

func cloneVec(v embed.Vector) embed.Vector {
	out := make(embed.Vector, len(v))
	copy(out, v)
	return out
}

package vector

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/embed"
)

// PQ is a product-quantization index: vectors are split into M sub-vectors,
// each quantized to one of K centroids learned by k-means, so a vector is
// stored as M bytes instead of dim float32s. Queries score against
// per-sub-space lookup tables (asymmetric distance computation). This is
// the memory-compressed regime production vector stores run large
// collections in — the paper's multi-modal data lake at scale.
//
// PQ is safe for concurrent use. Like IVF, it trains lazily on first
// search from the vectors added so far.
type PQ struct {
	mu      sync.RWMutex
	dim     int
	m       int // sub-quantizers
	k       int // centroids per sub-quantizer
	seed    int64
	trained bool

	subDim    int
	codebooks [][]embed.Vector // [m][k] sub-centroids
	codes     []byte           // flattened: m bytes per item, contiguous
	ids       []ID
	byID      map[ID]struct{}
	pending   []Item
}

// PQConfig parameterizes a PQ index.
type PQConfig struct {
	Dim int
	// M is the number of sub-quantizers; must divide Dim. Defaults to 8.
	M int
	// K is the number of centroids per sub-space (max 256). Defaults to 32.
	K    int
	Seed int64
}

// NewPQ returns an empty PQ index over L2 distance.
func NewPQ(cfg PQConfig) *PQ {
	if cfg.Dim <= 0 {
		panic("vector: non-positive dimension")
	}
	if cfg.M <= 0 {
		cfg.M = 8
	}
	if cfg.Dim%cfg.M != 0 {
		panic(fmt.Sprintf("vector: M=%d does not divide dim=%d", cfg.M, cfg.Dim))
	}
	if cfg.K <= 0 {
		cfg.K = 32
	}
	if cfg.K > 256 {
		cfg.K = 256
	}
	return &PQ{
		dim:    cfg.Dim,
		m:      cfg.M,
		k:      cfg.K,
		seed:   cfg.Seed,
		subDim: cfg.Dim / cfg.M,
		byID:   make(map[ID]struct{}),
	}
}

// Add implements Index.
func (p *PQ) Add(items ...Item) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, it := range items {
		if len(it.Vec) != p.dim {
			return fmt.Errorf("%w: item %d has dim %d, index dim %d", ErrDimMismatch, it.ID, len(it.Vec), p.dim)
		}
		if _, ok := p.byID[it.ID]; ok {
			return fmt.Errorf("%w: %d", ErrDuplicateID, it.ID)
		}
		p.byID[it.ID] = struct{}{}
		if !p.trained {
			p.pending = append(p.pending, it)
			continue
		}
		p.codes = p.appendCodeLocked(p.codes, it.Vec)
		p.ids = append(p.ids, it.ID)
	}
	return nil
}

// trainLocked fits the sub-space codebooks and encodes the pending
// vectors, once: the first Search trains the index.
func (p *PQ) trainLocked() {
	if p.trained {
		return
	}
	p.codebooks = make([][]embed.Vector, p.m)
	for s := 0; s < p.m; s++ {
		// Build the sub-vector training set for sub-space s.
		subItems := make([]Item, len(p.pending))
		for i, it := range p.pending {
			subItems[i] = Item{ID: ID(i), Vec: it.Vec[s*p.subDim : (s+1)*p.subDim]}
		}
		k := p.k
		if k > len(subItems) {
			k = len(subItems)
		}
		if k == 0 {
			k = 1
		}
		p.codebooks[s] = kmeans(subItems, k, p.subDim, p.seed+int64(s))
	}
	for _, it := range p.pending {
		p.codes = p.appendCodeLocked(p.codes, it.Vec)
		p.ids = append(p.ids, it.ID)
	}
	p.pending = nil
	p.trained = true
}

// appendCodeLocked appends v's m-byte code to dst. Codes live flattened in
// one contiguous array so the scan in Search walks a single allocation.
func (p *PQ) appendCodeLocked(dst []byte, v embed.Vector) []byte {
	for s := 0; s < p.m; s++ {
		sub := v[s*p.subDim : (s+1)*p.subDim]
		best, bestD := 0, math.Inf(1)
		for c, cent := range p.codebooks[s] {
			d := embed.SqL2(sub, cent)
			if d < bestD {
				best, bestD = c, d
			}
		}
		dst = append(dst, byte(best))
	}
	return dst
}

// Search implements Index. Scores are negative approximate L2 distances
// (higher is closer), matching the L2 metric convention.
func (p *PQ) Search(q embed.Vector, k int) []Result {
	p.mu.Lock()
	p.trainLocked()
	p.mu.Unlock()

	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.codes) == 0 || k <= 0 {
		return nil
	}
	// Asymmetric distance tables: distance from each query sub-vector to
	// every sub-centroid, computed once.
	tables := make([][]float64, p.m)
	for s := 0; s < p.m; s++ {
		sub := q[s*p.subDim : (s+1)*p.subDim]
		tables[s] = make([]float64, len(p.codebooks[s]))
		for c, cent := range p.codebooks[s] {
			tables[s][c] = embed.SqL2(sub, cent)
		}
	}
	t := newTopK(k)
	for i := range p.ids {
		code := p.codes[i*p.m : (i+1)*p.m]
		var d float64
		for s := 0; s < p.m; s++ {
			d += tables[s][code[s]]
		}
		t.offer(Result{ID: p.ids[i], Score: -math.Sqrt(d)})
	}
	return t.results()
}

// Len implements Index.
func (p *PQ) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.byID)
}

// BytesPerVector reports the compressed storage per vector (codes only).
func (p *PQ) BytesPerVector() int { return p.m }

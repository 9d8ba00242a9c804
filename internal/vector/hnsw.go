package vector

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/embed"
)

// HNSW is a hierarchical navigable small world graph index, the structure
// behind most production approximate-nearest-neighbor systems. Inserts build
// a multi-layer proximity graph; queries greedily descend from the sparse
// top layer and then run a best-first beam search on the base layer.
//
// The beam search runs on pooled scratch state (an epoch-stamped visited
// array and reusable heaps) and node norms are cached at insert so cosine
// distance is one dot product per edge. HNSW is safe for concurrent use.
type HNSW struct {
	mu     sync.RWMutex
	metric Metric
	dim    int
	m      int // max neighbors per node per upper layer (2m at layer 0)
	efSrch int
	levelP float64
	rng    *rand.Rand

	nodes []hnswNode
	norms []float32 // L2 norm per node, aligned with nodes
	byID  map[ID]int
	entry int // index into nodes of the entry point, -1 if empty
	maxL  int

	scratch sync.Pool // *hnswScratch
}

type hnswNode struct {
	item  Item
	level int
	// neighbors[l] lists node indexes adjacent at layer l.
	neighbors [][]int
}

// efConstruction is the beam width an insertion searches each layer with.
const efConstruction = 64

// HNSWConfig parameterizes an HNSW index.
type HNSWConfig struct {
	Dim    int
	Metric Metric
	// M is the graph degree parameter. Defaults to 8.
	M int
	// EfSearch is the query beam width. Defaults to 32.
	EfSearch int
	// Seed drives random level assignment; fixed for reproducibility.
	Seed int64
}

// NewHNSW returns an empty HNSW index.
func NewHNSW(cfg HNSWConfig) *HNSW {
	if cfg.Dim <= 0 {
		panic("vector: non-positive dimension")
	}
	if cfg.M <= 0 {
		cfg.M = 8
	}
	if cfg.EfSearch <= 0 {
		cfg.EfSearch = 32
	}
	h := &HNSW{
		metric: cfg.Metric,
		dim:    cfg.Dim,
		m:      cfg.M,
		efSrch: cfg.EfSearch,
		levelP: 1 / math.E,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		byID:   make(map[ID]int),
		entry:  -1,
	}
	h.scratch.New = func() any { return &hnswScratch{} }
	return h
}

// hnswQuery is the per-search hoisted state: the query vector and its norm,
// computed once instead of per visited edge.
type hnswQuery struct {
	q     embed.Vector
	qnorm float64
}

func (h *HNSW) prepare(q embed.Vector) hnswQuery {
	return hnswQuery{q: q, qnorm: embed.Norm(q)}
}

// distNode is the search distance (lower is closer) from the prepared
// query to node n, using the cached node norm.
func (h *HNSW) distNode(p *hnswQuery, n int) float64 {
	v := h.nodes[n].item.Vec
	switch h.metric {
	case Cosine:
		denom := p.qnorm * float64(h.norms[n])
		if denom == 0 {
			return 0
		}
		return -embed.Dot(p.q, v) / denom
	case Dot:
		return -embed.Dot(p.q, v)
	default: // L2
		return math.Sqrt(embed.SqL2(p.q, v))
	}
}

// distNodes is the search distance between two stored nodes.
func (h *HNSW) distNodes(a, b int) float64 {
	switch h.metric {
	case Cosine:
		denom := float64(h.norms[a]) * float64(h.norms[b])
		if denom == 0 {
			return 0
		}
		return -embed.Dot(h.nodes[a].item.Vec, h.nodes[b].item.Vec) / denom
	case Dot:
		return -embed.Dot(h.nodes[a].item.Vec, h.nodes[b].item.Vec)
	default: // L2
		return math.Sqrt(embed.SqL2(h.nodes[a].item.Vec, h.nodes[b].item.Vec))
	}
}

// randomLevel draws a level from the standard HNSW geometric distribution.
func (h *HNSW) randomLevel() int {
	lvl := 0
	for h.rng.Float64() < h.levelP && lvl < 32 {
		lvl++
	}
	return lvl
}

// Add implements Index.
func (h *HNSW) Add(items ...Item) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, it := range items {
		if len(it.Vec) != h.dim {
			return fmt.Errorf("%w: item %d has dim %d, index dim %d", ErrDimMismatch, it.ID, len(it.Vec), h.dim)
		}
		if _, ok := h.byID[it.ID]; ok {
			return fmt.Errorf("%w: %d", ErrDuplicateID, it.ID)
		}
		h.insertLocked(it)
	}
	return nil
}

func (h *HNSW) insertLocked(it Item) {
	level := h.randomLevel()
	n := hnswNode{item: it, level: level, neighbors: make([][]int, level+1)}
	idx := len(h.nodes)
	h.nodes = append(h.nodes, n)
	h.norms = append(h.norms, float32(embed.Norm(it.Vec)))
	h.byID[it.ID] = idx

	if h.entry == -1 {
		h.entry = idx
		h.maxL = level
		return
	}

	p := h.prepare(it.Vec)
	cur := h.entry
	// Greedy descent through layers above the new node's level.
	for l := h.maxL; l > level; l-- {
		cur = h.greedyClosestLocked(&p, cur, l)
	}
	// Insert with beam search on each layer from min(level, maxL) down to 0.
	top := level
	if top > h.maxL {
		top = h.maxL
	}
	sc := h.scratch.Get().(*hnswScratch)
	for l := top; l >= 0; l-- {
		cands := h.searchLayerLocked(sc, &p, cur, efConstruction, l)
		max := h.m
		if l == 0 {
			max = 2 * h.m
		}
		sel := cands
		if len(sel) > max {
			sel = sel[:max]
		}
		for _, c := range sel {
			h.nodes[idx].neighbors[l] = append(h.nodes[idx].neighbors[l], c.node)
			h.nodes[c.node].neighbors[l] = append(h.nodes[c.node].neighbors[l], idx)
			h.pruneLocked(c.node, l)
		}
		if len(cands) > 0 {
			cur = cands[0].node
		}
	}
	h.scratch.Put(sc)
	if level > h.maxL {
		h.maxL = level
		h.entry = idx
	}
}

// pruneLocked trims node's neighbor list at layer l back to the degree bound,
// keeping the closest neighbors.
func (h *HNSW) pruneLocked(node, l int) {
	max := h.m
	if l == 0 {
		max = 2 * h.m
	}
	nb := h.nodes[node].neighbors[l]
	if len(nb) <= max {
		return
	}
	type nd struct {
		n int
		d float64
	}
	ds := make([]nd, len(nb))
	for i, x := range nb {
		ds[i] = nd{x, h.distNodes(node, x)}
	}
	// Selection by distance, deterministic tie-break on node index.
	for i := 0; i < max; i++ {
		best := i
		for j := i + 1; j < len(ds); j++ {
			if ds[j].d < ds[best].d || (ds[j].d == ds[best].d && ds[j].n < ds[best].n) {
				best = j
			}
		}
		ds[i], ds[best] = ds[best], ds[i]
	}
	out := make([]int, max)
	for i := 0; i < max; i++ {
		out[i] = ds[i].n
	}
	h.nodes[node].neighbors[l] = out
}

// greedyClosestLocked walks layer l greedily from start toward q.
func (h *HNSW) greedyClosestLocked(p *hnswQuery, start, l int) int {
	cur := start
	curD := h.distNode(p, cur)
	for {
		improved := false
		for _, nb := range h.nodes[cur].neighbors[l] {
			if d := h.distNode(p, nb); d < curD {
				cur, curD = nb, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

type hnswCand struct {
	node int
	d    float64
}

// beamHeap is a binary heap of beam candidates: a min-heap by distance
// (the candidates still to expand, closest on top) or, with far set, a
// max-heap (the beam's worst on top). push and pop sift exactly as
// container/heap's Push and Pop do — the same comparisons, the same swaps —
// so the beam visits the nodes it visited through that package, but they
// are written out because its interface boxes every hnswCand pushed or
// popped: one allocation per visited neighbour.
type beamHeap struct {
	c   []hnswCand
	far bool
}

func (h *beamHeap) less(i, j int) bool {
	if h.far {
		return h.c[i].d > h.c[j].d
	}
	return h.c[i].d < h.c[j].d
}

func (h *beamHeap) push(x hnswCand) {
	h.c = append(h.c, x)
	for j := len(h.c) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.c[i], h.c[j] = h.c[j], h.c[i]
		j = i
	}
}

func (h *beamHeap) pop() hnswCand {
	n := len(h.c) - 1
	h.c[0], h.c[n] = h.c[n], h.c[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.c[i], h.c[j] = h.c[j], h.c[i]
		i = j
	}
	x := h.c[n]
	h.c = h.c[:n]
	return x
}

// hnswScratch is pooled per-search state. The visited set is an
// epoch-stamped array: marking is one store, resetting is one increment,
// and the array is reused across searches, so the beam search allocates
// nothing in steady state.
type hnswScratch struct {
	visited []uint32
	epoch   uint32
	cands   beamHeap // to expand, closest on top
	best    beamHeap // the beam, farthest on top
}

func (sc *hnswScratch) reset(n int) {
	if len(sc.visited) < n {
		sc.visited = append(sc.visited, make([]uint32, n-len(sc.visited))...)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias, clear once
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 1
	}
	sc.cands.c = sc.cands.c[:0]
	sc.best.c, sc.best.far = sc.best.c[:0], true
}

func (sc *hnswScratch) seen(n int) bool { return sc.visited[n] == sc.epoch }
func (sc *hnswScratch) visit(n int)     { sc.visited[n] = sc.epoch }

// searchLayerLocked runs the HNSW best-first beam search on layer l and
// returns up to ef candidates sorted by ascending distance.
func (h *HNSW) searchLayerLocked(sc *hnswScratch, p *hnswQuery, start, ef, l int) []hnswCand {
	sc.reset(len(h.nodes))
	sc.visit(start)
	d0 := h.distNode(p, start)
	sc.cands.push(hnswCand{start, d0})
	sc.best.push(hnswCand{start, d0})
	for len(sc.cands.c) > 0 {
		c := sc.cands.pop()
		if len(sc.best.c) >= ef && c.d > sc.best.c[0].d {
			break
		}
		for _, nb := range h.nodes[c.node].neighbors[l] {
			if sc.seen(nb) {
				continue
			}
			sc.visit(nb)
			d := h.distNode(p, nb)
			if len(sc.best.c) < ef || d < sc.best.c[0].d {
				sc.cands.push(hnswCand{nb, d})
				sc.best.push(hnswCand{nb, d})
				if len(sc.best.c) > ef {
					sc.best.pop()
				}
			}
		}
	}
	out := make([]hnswCand, len(sc.best.c))
	copy(out, sc.best.c)
	// Sort ascending by distance, tie-break on node for determinism.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].d < out[j-1].d || (out[j].d == out[j-1].d && out[j].node < out[j-1].node)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Search implements Index.
func (h *HNSW) Search(q embed.Vector, k int) []Result {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.entry == -1 || k <= 0 {
		return nil
	}
	p := h.prepare(q)
	cur := h.entry
	for l := h.maxL; l > 0; l-- {
		cur = h.greedyClosestLocked(&p, cur, l)
	}
	ef := h.efSrch
	if ef < k {
		ef = k
	}
	sc := h.scratch.Get().(*hnswScratch)
	cands := h.searchLayerLocked(sc, &p, cur, ef, 0)
	h.scratch.Put(sc)
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: h.nodes[c.node].item.ID, Score: -c.d}
	}
	return out
}

// Len implements Index.
func (h *HNSW) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.nodes)
}

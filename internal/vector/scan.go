package vector

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/embed"
	"repro/internal/obs"
)

// Scan kernel layer: a contiguous column store plus the exact and
// int8-quantized scoring loops shared by the flat and IVF indexes.
//
// Storing vectors row-major in one []float32 (instead of one heap object
// per item) keeps scans sequential in memory, lets the embed package's
// SIMD kernels run without per-item slice-header chasing, and makes the
// optional int8 code array a parallel column rather than a second index.
// See DESIGN.md "Kernel architecture".

// Both thresholds below sit where internal/perf's cases record a crossover
// (BENCH_kernels.json: 128 dims, top-10, 2 vCPUs); the times in the
// comments are those cases' when the thresholds were set. The one-multiply
// reject (scanRows) has since taken a fifth to a third off every quantized
// time and moved neither crossover.
const (
	// quantAutoMin is the collection size at which a store in auto mode
	// starts maintaining int8 codes. With the rows kernel the quantized
	// prefilter is ahead of the exact scan at every recorded size:
	// vector_flat_search_quantized takes 20 µs against vector_flat_search's
	// 41 µs at 2048 rows, and the _16k pair 126 µs against 457 µs. 2048 is
	// the smallest recorded size, and below it a whole exact scan is a few
	// tens of microseconds, so smaller stores (and every exact-accuracy
	// test) keep exact ranking and do without the extra quarter of memory.
	// Quantized() forces codes on regardless of size.
	quantAutoMin = 2048

	// flatParallelMin is the default collection size at which an
	// unfiltered flat scan shards across goroutines, each worker getting
	// at least half that many rows. Two workers are behind the serial scan
	// at 16384 rows (vector_flat_search_quantized_16k_sharded 186 µs,
	// _serial 126 µs) and still at 65536; at 131072 they are ahead (the
	// _128k pair: 760 µs against 1107 µs), so that is where sharding is
	// armed by default. ParallelMin tunes it per index.
	flatParallelMin = 131072

	// maxScanWorkers bounds scan fan-out regardless of GOMAXPROCS so one
	// search cannot monopolize a large machine.
	maxScanWorkers = 8
)

// shortlistFor is the quantized-prefilter shortlist size: wide enough that
// int8 ranking error (see embed.QuantizeInto) essentially never evicts a
// true top-k hit, small enough that exact rescoring stays negligible.
func shortlistFor(k int) int { return k*4 + 16 }

// quantMode selects how a colStore decides to maintain int8 codes.
type quantMode int

const (
	quantAuto quantMode = iota // quantize once the store reaches quantAutoMin
	quantOff                   // never quantize
	quantOn                    // quantize from the first row
)

// colStore is a row-major contiguous vector store with cached norms and
// optional int8 codes. It has no lock of its own: the owning index
// serializes mutation.
type colStore struct {
	dim      int
	n        int
	vecs     []float32 // n*dim, row-major
	norms    []float32 // n, L2 norm of each row
	invNorms []float32 // n, 1/norm (0 for zero rows): scans multiply, never divide
	mode     quantMode
	quant    bool // int8 codes are live
	codes    []int8
	scales   []float32
	cosw     []float32 // n, scales[i]*invNorms[i]: the cosine scan's one-multiply reject weight
}

func newColStore(dim int, mode quantMode) *colStore {
	return &colStore{dim: dim, mode: mode}
}

func (s *colStore) row(i int) embed.Vector {
	return embed.Vector(s.vecs[i*s.dim : (i+1)*s.dim : (i+1)*s.dim])
}

func (s *colStore) code(i int) []int8 {
	return s.codes[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
}

// appendRow copies v into the store (the caller keeps ownership of v).
func (s *colStore) appendRow(v embed.Vector) {
	s.vecs = append(s.vecs, v...)
	n := embed.Norm(v)
	s.norms = append(s.norms, float32(n))
	if n == 0 {
		s.invNorms = append(s.invNorms, 0)
	} else {
		s.invNorms = append(s.invNorms, float32(1/n))
	}
	s.n++
	if s.quant {
		s.codes = append(s.codes, make([]int8, s.dim)...)
		s.scales = append(s.scales, embed.QuantizeInto(s.code(s.n-1), v))
		s.cosw = append(s.cosw, s.cosWeight(s.n-1))
	} else if s.mode == quantOn || (s.mode == quantAuto && s.n >= quantAutoMin) {
		s.enableQuant()
	}
}

// enableQuant materializes int8 codes for every stored row.
func (s *colStore) enableQuant() {
	s.quant = true
	s.codes = make([]int8, s.n*s.dim)
	s.scales = make([]float32, s.n)
	s.cosw = make([]float32, s.n)
	for i := 0; i < s.n; i++ {
		s.scales[i] = embed.QuantizeInto(s.code(i), s.row(i))
		s.cosw[i] = s.cosWeight(i)
	}
}

// cosWeight is row i's entry in the cosw column.
func (s *colStore) cosWeight(i int) float32 {
	return float32(float64(s.scales[i]) * float64(s.invNorms[i]))
}

// swapRemove removes row i by moving the last row into its place,
// mirroring the swap-remove the owning index performs on its own arrays.
func (s *colStore) swapRemove(i int) {
	last := s.n - 1
	if i != last {
		copy(s.row(i), s.row(last))
		s.norms[i] = s.norms[last]
		s.invNorms[i] = s.invNorms[last]
		if s.quant {
			copy(s.code(i), s.code(last))
			s.scales[i] = s.scales[last]
			s.cosw[i] = s.cosw[last]
		}
	}
	s.vecs = s.vecs[:last*s.dim]
	s.norms = s.norms[:last]
	s.invNorms = s.invNorms[:last]
	if s.quant {
		s.codes = s.codes[:last*s.dim]
		s.scales = s.scales[:last]
		s.cosw = s.cosw[:last]
	}
	s.n = last
}

// preparedQuery hoists the per-query work (norm, squared norm, int8 code)
// out of the per-row loop.
type preparedQuery struct {
	metric Metric
	q      embed.Vector
	qsq    float64 // q·q
	qnorm  float64 // sqrt(qsq)
	qinv   float64 // 1/qnorm (0 for the zero query)
	qcode  []int8  // set only for a quantized scan
	qscale float32
}

func prepare(m Metric, q embed.Vector) preparedQuery {
	p := preparedQuery{metric: m, q: q, qsq: embed.Dot(q, q)}
	p.qnorm = math.Sqrt(p.qsq)
	if p.qnorm != 0 {
		p.qinv = 1 / p.qnorm
	}
	return p
}

// searchScratch is what a quantized search needs besides its result: the
// query's int8 code and the shortlist heap. Pooled, so a search allocates
// neither.
type searchScratch struct {
	code  []int8
	short []Result
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// scoreExact scores row i exactly under p's metric (higher is closer),
// using the cached reciprocal norm so cosine is one dot product and two
// multiplies — no per-row division, no recomputed norms.
func (s *colStore) scoreExact(p *preparedQuery, i int) float64 {
	switch p.metric {
	case Cosine:
		return embed.Dot(p.q, s.row(i)) * float64(s.invNorms[i]) * p.qinv
	case Dot:
		return embed.Dot(p.q, s.row(i))
	default: // L2
		return -math.Sqrt(embed.SqL2(p.q, s.row(i)))
	}
}

// scoreApprox ranks row i from dot, the int8 inner product of its code
// with p.qcode. The value is monotone in the exact score per metric but
// carries quantization error, so it is only ever used to build a shortlist
// that is rescored exactly.
func (s *colStore) scoreApprox(p *preparedQuery, i int, dot int32) float64 {
	d := float64(dot) * float64(p.qscale) * float64(s.scales[i])
	switch p.metric {
	case Cosine:
		return d * float64(s.invNorms[i]) * p.qinv
	case Dot:
		return d
	default: // L2: rank by -||q-x||^2 = 2(q·x) - q·q - x·x
		n := float64(s.norms[i])
		return 2*d - p.qsq - n*n
	}
}

// rejectSlack and rejectFloor are how far below the kept minimum rejectCut
// places its cut: 2^-20 of the value plus 1e-30. The float32 test it guards
// is wrong by far less — rounding the dot, the weight and their product is
// 2^-24 relative each, 2^-126 times the dot at most where float32 goes
// denormal — and so is scoreApprox's float64 arithmetic (2^-53 per step),
// so a rejected row is one scoreApprox scores strictly below the minimum.
const (
	rejectSlack = 1.0 / (1 << 20)
	rejectFloor = 1e-30
)

// rejectCut is where scanRows' one-multiply reject cuts when the worst kept
// approximate score is min: float32(dot)*w[i] below it means row i's
// scoreApprox is below min, w being cosw under Cosine and scales under Dot
// and L2. It is scoreApprox's formula solved for dot*w[i] — min over the
// query's own factors — with the slack above taken off. L2's -norm² term
// varies by row and only lowers a score, so leaving it out keeps the cut
// conservative.
func (p *preparedQuery) rejectCut(min float64) float32 {
	var div, off float64
	switch p.metric {
	case Cosine:
		div = float64(p.qscale) * p.qinv
	case Dot:
		div = float64(p.qscale)
	default: // L2
		div, off = 2*float64(p.qscale), p.qsq
	}
	if !(div > 0) {
		return float32(math.Inf(-1)) // a zero query code: nothing to divide by, reject nothing
	}
	m := (min + off - rejectSlack*(math.Abs(min)+off)) / div
	return float32(m - rejectSlack*math.Abs(m) - rejectFloor)
}

// search scans the store for the top k rows under m. id maps a row index
// to the caller's item ID (scores and tie-breaks are reported in ID
// space); keep, when non-nil, admits a row. parallelMin <= 0 disables
// sharding. Returned results carry exact scores even when the quantized
// prefilter ran.
func (s *colStore) search(m Metric, q embed.Vector, k int, id func(int) ID, keep func(int) bool, parallelMin int) []Result {
	if k <= 0 || s.n == 0 {
		return []Result{}
	}
	p := prepare(m, q)
	// The k-heap's backing array is what the caller gets back (results sorts
	// it in place), so it is the search's one allocation.
	t := topK{k: k, h: make([]Result, 0, min(k, s.n))}
	if !s.quant || k >= s.n || s.n <= 4*shortlistFor(k) {
		s.scan(&t, &p, id, keep, parallelMin)
		return t.results()
	}
	// Quantized prefilter: rank every row by int8 score, keep a generous
	// shortlist (tie-broken by row index), then rescore the shortlist
	// exactly so callers only ever observe exact scores.
	sc := scratchPool.Get().(*searchScratch)
	if cap(sc.code) < s.dim {
		sc.code = make([]int8, s.dim)
	}
	p.qcode = sc.code[:s.dim]
	p.qscale = embed.QuantizeInto(p.qcode, q)
	short := topK{k: shortlistFor(k), h: sc.short[:0]}
	if cap(short.h) < short.k {
		short.h = make([]Result, 0, short.k)
	}
	s.scan(&short, &p, rowAsID, keep, parallelMin)
	for _, r := range short.h {
		i := int(r.ID)
		t.offer(Result{ID: id(i), Score: s.scoreExact(&p, i)})
	}
	sc.short = short.h
	scratchPool.Put(sc)
	return t.results()
}

// rowAsID is the identity row-index-to-ID mapping used by prefilter scans.
func rowAsID(i int) ID { return ID(i) }

// scan scores every row — from the int8 codes when p carries a query code,
// exactly otherwise — offering hits into the empty t. Unfiltered scans
// over at least parallelMin rows shard across up to maxScanWorkers
// goroutines: the caller scans the first shard into t itself, each other
// worker fills a private topK, and the shards are merged into t. What a
// topK keeps does not depend on offer order, so the result is exactly the
// serial scan's.
func (s *colStore) scan(t *topK, p *preparedQuery, id func(int) ID, keep func(int) bool, parallelMin int) {
	workers := 1
	if keep == nil && parallelMin > 0 && s.n >= parallelMin {
		workers = min(runtime.GOMAXPROCS(0), 2*s.n/parallelMin, maxScanWorkers)
	}
	if workers <= 1 {
		s.scanRows(t, p, id, keep, 0, s.n)
		return
	}
	parts := make([]topK, workers-1)
	shared := *p // the workers' copy: only a sharded search's query moves to the heap
	var wg sync.WaitGroup
	for w := range parts {
		lo, hi := (w+1)*s.n/workers, (w+2)*s.n/workers
		part := &parts[w]
		part.k, part.h = t.k, make([]Result, 0, min(t.k, hi-lo))
		wg.Add(1)
		obs.Go(nil, "vector.scan_shard", func() {
			defer wg.Done()
			s.scanRows(part, &shared, id, nil, lo, hi)
		})
	}
	s.scanRows(t, p, id, nil, 0, s.n/workers)
	// Shard workers read immutable rows and private heaps only; they can
	// never take index locks, so joining them while the caller holds the
	// index read lock cannot deadlock.
	wg.Wait()
	for i := range parts {
		for _, r := range parts[i].h {
			t.offer(r)
		}
	}
}

// scanBlock is how many rows one DotInt8Rows call scores: enough that the
// call is amortized to nothing, few enough that the dot products (1 KB)
// sit on the scanning goroutine's stack.
const scanBlock = 256

// scanRows offers rows [lo, hi) into t, dropping a row that scores below
// the worst kept result before it costs an id lookup and a heap offer (a
// row that ties falls through to offer's ID tie-break).
//
// A quantized scan gets a block's int8 dot products from one kernel call
// and, once t is full, decides most rows from one float32 multiply:
// float32(dot)*w[i] against a cut that rejectCut places below the kept
// minimum by more than the multiply can be wrong. Only the rows that pass
// — a few hundred of 16384 — are scored with scoreApprox and tested as
// before, so what is offered, and with which score, is exactly what the
// row-at-a-time scan offers (TestQuantizedScanMatchesRowAtATime keeps that
// scan as its reference). The cut only needs recomputing when an offer
// raised the minimum; a stale cut is merely lower.
func (s *colStore) scanRows(t *topK, p *preparedQuery, id func(int) ID, keep func(int) bool, lo, hi int) {
	if p.qcode == nil {
		for i := lo; i < hi; i++ {
			if keep != nil && !keep(i) {
				continue
			}
			score := s.scoreExact(p, i)
			if len(t.h) == t.k && score < t.h[0].Score {
				continue
			}
			t.offer(Result{ID: id(i), Score: score})
		}
		return
	}
	w := s.scales
	if p.metric == Cosine {
		w = s.cosw
	}
	cut := float32(math.Inf(-1)) // rejects nothing until t is full
	var dots [scanBlock]int32
	for b := lo; b < hi; b += scanBlock {
		e := min(b+scanBlock, hi)
		ds, ws := dots[:e-b], w[b:e]
		embed.DotInt8Rows(ds, p.qcode, s.codes[b*s.dim:e*s.dim])
		for j, dot := range ds {
			if float32(dot)*ws[j] < cut {
				continue
			}
			i := b + j
			if keep != nil && !keep(i) {
				continue
			}
			score := s.scoreApprox(p, i, dot)
			if len(t.h) == t.k && score < t.h[0].Score {
				continue
			}
			t.offer(Result{ID: id(i), Score: score})
			if len(t.h) == t.k {
				cut = p.rejectCut(t.h[0].Score)
			}
		}
	}
}

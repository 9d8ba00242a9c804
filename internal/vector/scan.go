package vector

import (
	"math"
	"sync"

	"repro/internal/embed"
)

// Scan kernel layer: a contiguous column store plus the exact and
// int8-quantized scoring loops shared by the flat and IVF indexes.
//
// Storing vectors row-major in one []float32 (instead of one heap object
// per item) keeps scans sequential in memory, lets the embed package's
// SIMD kernels run without per-item slice-header chasing, and makes the
// optional int8 code array a parallel column rather than a second index.
// See DESIGN.md "Kernel architecture".

// quantAutoMin is the collection size at which a store starts maintaining
// int8 codes. It sits where internal/perf's cases recorded the quantized
// prefilter ahead of the exact scan at every size (BENCH_kernels.json: 128
// dims, top-10, 2 vCPUs): 20 µs against 41 µs exact at 2048 rows, and
// 126 µs against 457 µs at 16384. 2048 was the smallest recorded size, and
// below it a whole exact scan is a few tens of microseconds, so smaller
// stores keep exact ranking and do without the extra quarter of memory.
// The one-multiply reject (scanRows) has since taken a fifth to a third
// off every quantized time and did not move the crossover.
const quantAutoMin = 2048

// shortlistFor is the quantized-prefilter shortlist size: wide enough that
// int8 ranking error (see embed.QuantizeInto) essentially never evicts a
// true top-k hit, small enough that exact rescoring stays negligible.
func shortlistFor(k int) int { return k*4 + 16 }

// colStore is a row-major contiguous vector store with cached norms and
// optional int8 codes. It has no lock of its own: the owning index
// serializes mutation.
type colStore struct {
	dim      int
	n        int
	vecs     []float32 // n*dim, row-major
	norms    []float32 // n, L2 norm of each row
	invNorms []float32 // n, 1/norm (0 for zero rows): scans multiply, never divide
	quant    bool      // int8 codes are live
	codes    []int8
	scales   []float32
	cosw     []float32 // n, scales[i]*invNorms[i]: the cosine scan's one-multiply reject weight

	// The cosine bound's columns (see bound), kept beside the codes by a
	// store built with bounded set, which is a Cosine Flat's.
	bounded bool
	heads   []int8    // n*headDim: each row's first headDim code bytes; only when dim > headDim
	tailw   []float32 // n, scales[i]*‖code(i)[headDim:]‖*invNorms[i]
	qerrw   []float32 // n, ‖row(i) − scales[i]*code(i)‖*invNorms[i]; +Inf where the norm is not trusted
}

func newColStore(dim int, bounded bool) *colStore {
	return &colStore{dim: dim, bounded: bounded}
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
		i := s.n - 1
		s.codes = append(s.codes, make([]int8, s.dim)...)
		s.scales = append(s.scales, embed.QuantizeInto(s.code(i), v))
		s.cosw = append(s.cosw, s.cosWeight(i))
		if s.bounded {
			if s.heads != nil {
				s.heads = append(s.heads, s.code(i)[:headDim]...)
			}
			tw, ew := s.boundWeights(i)
			s.tailw = append(s.tailw, tw)
			s.qerrw = append(s.qerrw, ew)
		}
	} else if s.n >= quantAutoMin {
		s.enableQuant()
	}
}

// enableQuant materializes int8 codes for every stored row.
func (s *colStore) enableQuant() {
	s.quant = true
	s.codes = make([]int8, s.n*s.dim)
	s.scales = make([]float32, s.n)
	s.cosw = make([]float32, s.n)
	if s.bounded {
		if s.dim > headDim {
			s.heads = make([]int8, s.n*headDim)
		}
		s.tailw = make([]float32, s.n)
		s.qerrw = make([]float32, s.n)
	}
	for i := 0; i < s.n; i++ {
		s.scales[i] = embed.QuantizeInto(s.code(i), s.row(i))
		s.cosw[i] = s.cosWeight(i)
		if s.bounded {
			if s.heads != nil {
				copy(s.head(i), s.code(i))
			}
			s.tailw[i], s.qerrw[i] = s.boundWeights(i)
		}
	}
}

// cosWeight is row i's entry in the cosw column.
func (s *colStore) cosWeight(i int) float32 {
	return float32(float64(s.scales[i]) * float64(s.invNorms[i]))
}

func (s *colStore) head(i int) []int8 {
	return s.heads[i*headDim : (i+1)*headDim : (i+1)*headDim]
}

// boundWeights is row i's entries in the tailw and qerrw columns, computed
// in float64 from the stored row, code, scale and reciprocal norm. A zero
// row (invNorms 0, so scoreExact is 0) has both at 0. A row whose squared
// norm is outside [normSqMin, normSqMax] has an untrusted float32 norm, and
// its qerrw is +Inf: its bound is +Inf, so it is never dropped.
func (s *colStore) boundWeights(i int) (tailw, qerrw float32) {
	inv := float64(s.invNorms[i])
	if inv == 0 {
		return 0, 0
	}
	if n := float64(s.norms[i]); !(n*n >= normSqMin && n*n <= normSqMax) {
		return 0, float32(math.Inf(1))
	}
	scale := float64(s.scales[i])
	var tail int64
	var qerr float64
	for j, c := range s.code(i) {
		if j >= headDim {
			tail += int64(c) * int64(c)
		}
		d := float64(s.row(i)[j]) - scale*float64(c)
		qerr += d * d
	}
	return float32(scale * math.Sqrt(float64(tail)) * inv), float32(math.Sqrt(qerr) * inv)
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
			if s.bounded {
				if s.heads != nil {
					copy(s.head(i), s.head(last))
				}
				s.tailw[i] = s.tailw[last]
				s.qerrw[i] = s.qerrw[last]
			}
		}
	}
	s.vecs = s.vecs[:last*s.dim]
	s.norms = s.norms[:last]
	s.invNorms = s.invNorms[:last]
	if s.quant {
		s.codes = s.codes[:last*s.dim]
		s.scales = s.scales[:last]
		s.cosw = s.cosw[:last]
		if s.bounded {
			if s.heads != nil {
				s.heads = s.heads[:last*headDim]
			}
			s.tailw = s.tailw[:last]
			s.qerrw = s.qerrw[:last]
		}
	}
	s.n = last
}

// preparedQuery hoists the per-query work (norm, squared norm, int8 code,
// the bound's query-side factors) out of the per-row loop.
type preparedQuery struct {
	metric Metric
	q      embed.Vector
	qsq    float64 // q·q
	qnorm  float64 // sqrt(qsq)
	qinv   float64 // 1/qnorm (0 for the zero query)
	qcode  []int8  // set only for a quantized scan
	qscale float32
	floor  float64 // results scoring below it are dropped

	// Set by armBound when the floor can drop rows before they are scored:
	// bound's factors, and the head test's.
	prune        bool
	bA, bE, bOff float64 // qscale*qinv, ‖qcode‖, ‖q − q̂‖*qinv plus the slack
	head         bool
	hc           embed.HeadCut // ‖qcode[headDim:]‖, ‖qcode‖ and the cut of the head test
}

func prepare(m Metric, q embed.Vector, floor float64) preparedQuery {
	p := preparedQuery{metric: m, q: q, qsq: embed.Dot(q, q), floor: floor}
	p.qnorm = math.Sqrt(p.qsq)
	if p.qnorm != 0 {
		p.qinv = 1 / p.qnorm
	}
	return p
}

// quantize sets p's int8 code in code (len(code) == dim) and, when the
// store bounds, arms the bound.
func (s *colStore) quantize(p *preparedQuery, code []int8) {
	p.qcode = code
	p.qscale = embed.QuantizeInto(code, p.q)
	s.armBound(p)
}

// The cosine bound. With q̂ = sq·cq and x̂ = sx·cx the int8 reconstructions
// of the query and a row, H the first headDim dimensions and T the rest,
//
//	q·x = q̂·x̂ + q̂·(x − x̂) + (q − q̂)·x
//	    ≤ sq·sx·(cq_H·cx_H + cq_T·cx_T) + ‖q̂‖·‖x − x̂‖ + ‖q − q̂‖·‖x‖
//
// and cq_T·cx_T ≤ ‖cq_T‖·‖cx_T‖ (Cauchy–Schwarz). Divided by the norms —
// the stored reciprocals the exact score multiplies by — that is
//
//	cos ≤ A·(cosw·dot + ‖cq‖·qerrw) + F                    (bound)
//	cos ≤ A·(cosw·head + ‖cq_T‖·tailw + ‖cq‖·qerrw) + F    (head test)
//
// with A = sq/‖q‖ and F = ‖q − q̂‖/‖q‖ per query (‖q̂‖/‖q‖ = A·‖cq‖) and
// cosw, tailw, qerrw per row. bound needs the row's whole int8 dot; the
// head test needs only the dot of its first headDim code bytes, which the
// heads plane holds contiguously. Only Cosine stores keep the columns: the
// one caller with a floor, the semantic cache, scores by cosine, on a fixed
// [−1, 1] scale against which the slack below is small. On a Dot or L2 Flat
// a floor only cuts the results.
const (
	// headDim is how many leading code bytes the head test reads per row:
	// one 32-byte chunk of the int8 kernel, the row embed.DotInt8HeadsPass
	// takes.
	headDim = embed.HeadLen

	// A norm computed in float32 is trusted to dim·2⁻²⁴ relative while its
	// square lies in [normSqMin, normSqMax]: no float32 product in it
	// underflows or overflows by enough to matter. A query outside arms no
	// bound; a row outside is never dropped.
	normSqMin = 0x1p-100
	normSqMax = 0x1p100

	// boundSlack·(dim+8)·K is added to bound, K = (1+F)(1+εmax) with εmax
	// = √dim/127 twice the largest qerrw QuantizeInto can produce. It covers
	// the exact score's float32 accumulation (dim·2⁻²⁴ of ‖q‖‖x‖, through
	// reciprocal norms trusted to the same), the float32 rounding of the
	// stored columns (2⁻²⁴ each on terms of at most K) and the float64
	// arithmetic: about 2·(dim+4)·2⁻²⁴·K in all, so twice that. At 128
	// dimensions it is 4e-5.
	boundSlack = 4.0 / (1 << 24)

	// headSlack·(‖cq‖·(2+3εmax) + |cut|) is how far below the bound's own
	// cut (in the head test's units, divided by A) the head test cuts. The
	// head test sums three float32 products of terms at most ‖cq‖·(2+3εmax)
	// in all (seven roundings of 2⁻²⁴), and tailw, rounded on its own,
	// covers cosw·cq_T·cx_T to within three more; 2⁻²⁰ = 16·2⁻²⁴ is more
	// than both. So a row the head test drops is one bound drops too, and
	// which rows a search drops never depends on which test saw them.
	headSlack = 1.0 / (1 << 20)
)

// armBound prepares the bound for a quantized Cosine scan of a bounded
// store under a floor: p.prune when bound may drop rows, p.head when the
// head test runs first. A zero query — or one whose norm is not trusted —
// arms nothing; its results are still cut at the floor.
func (s *colStore) armBound(p *preparedQuery) {
	if !s.bounded || p.metric != Cosine || !(p.floor > math.Inf(-1)) || !(p.qsq >= normSqMin && p.qsq <= normSqMax) {
		return
	}
	var head, tail int64
	var qerr float64
	scale := float64(p.qscale)
	for j, c := range p.qcode {
		if j < headDim {
			head += int64(c) * int64(c)
		} else {
			tail += int64(c) * int64(c)
		}
		d := float64(p.q[j]) - scale*float64(c)
		qerr += d * d
	}
	nq := math.Sqrt(float64(head + tail))
	f := math.Sqrt(qerr) * p.qinv
	epsMax := math.Sqrt(float64(s.dim)) / 127
	k := (1 + f) * (1 + epsMax)
	p.prune = true
	p.bA, p.bE = scale*p.qinv, nq
	p.bOff = f + boundSlack*float64(s.dim+8)*k
	if s.heads == nil {
		return
	}
	c := (p.floor - p.bOff) / p.bA
	if c > 0 {
		c *= 1 - headSlack
	} else {
		c *= 1 + headSlack
	}
	c -= headSlack * nq * (2 + 3*epsMax)
	p.head = true
	p.hc = embed.HeadCut{Tail: float32(math.Sqrt(float64(tail))), Err: float32(nq), Cut: float32(c)}
}

// bound is an upper bound on scoreExact(p, i) from row i's whole int8 dot
// with p.qcode (see the derivation above); armBound must have set
// p.prune. A row is dropped from a floored search exactly when its bound is
// below the floor.
func (s *colStore) bound(p *preparedQuery, i int, dot int32) float64 {
	return p.bA*(float64(s.cosw[i])*float64(dot)+p.bE*float64(s.qerrw[i])) + p.bOff
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

// search scans the store for the top k rows under m that score at least
// floor (−Inf keeps every row). id maps a row index to the caller's item ID
// (scores and tie-breaks are reported in ID space); keep, when non-nil,
// admits a row. Returned results carry exact scores even when the quantized
// prefilter ran.
func (s *colStore) search(m Metric, q embed.Vector, k int, floor float64, id func(int) ID, keep func(int) bool) []Result {
	if k <= 0 || s.n == 0 {
		return []Result{}
	}
	p := prepare(m, q, floor)
	// The k-heap's backing array is what the caller gets back (results sorts
	// it in place), so it is the search's one allocation.
	t := topK{k: k, h: make([]Result, 0, min(k, s.n))}
	if !s.quant || k >= s.n || s.n <= 4*shortlistFor(k) {
		s.scanRows(&t, &p, id, keep, 0, s.n)
		return above(t.results(), floor)
	}
	// Quantized prefilter: rank every row by int8 score, keep a generous
	// shortlist (tie-broken by row index), then rescore the shortlist
	// exactly so callers only ever observe exact scores. Under a floor the
	// bound drops rows that provably score below it first.
	sc := scratchPool.Get().(*searchScratch)
	if cap(sc.code) < s.dim {
		sc.code = make([]int8, s.dim)
	}
	s.quantize(&p, sc.code[:s.dim])
	short := topK{k: shortlistFor(k), h: sc.short[:0]}
	if cap(short.h) < short.k {
		short.h = make([]Result, 0, short.k)
	}
	s.scanRows(&short, &p, rowAsID, keep, 0, s.n)
	for _, r := range short.h {
		i := int(r.ID)
		t.offer(Result{ID: id(i), Score: s.scoreExact(&p, i)})
	}
	sc.short = short.h
	scratchPool.Put(sc)
	return above(t.results(), floor)
}

// above cuts rs, best first, before its first result scoring below floor.
func above(rs []Result, floor float64) []Result {
	n := len(rs)
	for n > 0 && rs[n-1].Score < floor {
		n--
	}
	return rs[:n]
}

// rowAsID is the identity row-index-to-ID mapping used by prefilter scans.
func rowAsID(i int) ID { return ID(i) }

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
//
// Under an armed bound a row the cut lets through is also dropped when its
// bound is below the floor, and with p.head the rows start in scanHeads,
// which drops most of them before their whole code is read.
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
	b := lo
	if p.head {
		b, cut = s.scanHeads(t, p, id, keep, lo, hi)
	}
	var dots [scanBlock]int32
	for ; b < hi; b += scanBlock {
		e := min(b+scanBlock, hi)
		ds, ws := dots[:e-b], w[b:e]
		embed.DotInt8Rows(ds, p.qcode, s.codes[b*s.dim:e*s.dim])
		for j, dot := range ds {
			if float32(dot)*ws[j] < cut {
				continue
			}
			cut = s.offerApprox(t, p, id, keep, b+j, dot, cut)
		}
	}
}

// offerApprox is the rest of scanRows' work on row i once the one-multiply
// reject has let it through: the filter, scoreApprox, the test against the
// kept minimum, the bound and the offer. It returns the reject cut, moved
// when the offer raised the minimum. A row fails the filter, the minimum or
// the bound; which it is asked first changes only what is computed.
func (s *colStore) offerApprox(t *topK, p *preparedQuery, id func(int) ID, keep func(int) bool, i int, dot int32, cut float32) float32 {
	if keep != nil && !keep(i) {
		return cut
	}
	score := s.scoreApprox(p, i, dot)
	if len(t.h) == t.k && score < t.h[0].Score {
		return cut
	}
	if p.prune && s.bound(p, i, dot) < p.floor {
		return cut
	}
	t.offer(Result{ID: id(i), Score: score})
	if len(t.h) == t.k {
		return p.rejectCut(t.h[0].Score)
	}
	return cut
}

// scanHeads is scanRows' first stage under an armed head test. One kernel
// call scores a block's head codes (headDim bytes a row, from the heads
// plane), applies the head test and lists the rows it does not prove below
// the floor, so a dropped row costs no Go at all; the few that pass get
// the rest of their dot from their own code and go on as in scanRows.
// Where the floor is low against the data — a stale lookup's, or a corpus
// of near-duplicates — most rows pass and the head test only adds work, so
// the first block in which more than half the rows pass is left to
// scanRows, from where scanHeads returns with the reject cut so far. Which
// rows are dropped does not depend on where it stops: the head test drops
// only rows bound drops too.
func (s *colStore) scanHeads(t *topK, p *preparedQuery, id func(int) ID, keep func(int) bool, lo, hi int) (int, float32) {
	cut := float32(math.Inf(-1))
	qhead, qtail := p.qcode[:headDim], p.qcode[headDim:]
	var heads [scanBlock]int32
	var passed [scanBlock]uint8 // block offsets of the rows the head test let through
	for b := lo; b < hi; b += scanBlock {
		e := min(b+scanBlock, hi)
		hs, aw := heads[:e-b], s.cosw[b:e:e]
		n := embed.DotInt8HeadsPass(hs, passed[:], qhead, s.heads[b*headDim:e*headDim], aw, s.tailw[b:e:e], s.qerrw[b:e:e], p.hc)
		if 2*n > e-b {
			return b, cut
		}
		for _, j := range passed[:n] {
			i := b + int(j)
			dot := hs[j] + embed.DotInt8(qtail, s.code(i)[headDim:])
			if float32(dot)*aw[j] < cut {
				continue
			}
			cut = s.offerApprox(t, p, id, keep, i, dot, cut)
		}
	}
	return hi, cut
}

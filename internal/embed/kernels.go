// Distance kernels: the innermost loops of every vector scan in the
// repository (flat search, IVF cells, PQ codebooks, HNSW beams, cosine
// similarity on the semantic-cache path).
//
// Three layers:
//
//   - exported helpers (Dot, SqL2, DotInt8, DotInt8Rows, DotInt8HeadsPass,
//     QuantizeInto) with the package's length-guard semantics;
//   - portable 4-wide unrolled implementations (dotGeneric & co) that break
//     the floating-point dependency chain so the scalar path pipelines;
//   - an amd64 AVX2+FMA fast path (kernels_amd64.s), selected at startup by
//     CPUID feature detection, with the generic code as fallback and tail
//     handler; DotInt8HeadsPass also has an AVX-512 VNNI path, taken
//     before AVX2 where the CPU and the OS support it.
//
// Accumulation is float32 lanes combined in float64 — results can differ
// from a sequential float64 loop in the last few ulps, which every consumer
// (similarity thresholds, top-k ordering with ID tie-breaks) tolerates by
// construction. See DESIGN.md "Kernel architecture".
package embed

// dotF32 returns the inner product of equal-length a and b.
func dotF32(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("embed: kernel length mismatch")
	}
	if s, ok := dotArch(a, b); ok {
		return s
	}
	return dotGeneric(a, b)
}

// sqL2F32 returns the squared Euclidean distance of equal-length a and b.
func sqL2F32(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("embed: kernel length mismatch")
	}
	if s, ok := sqL2Arch(a, b); ok {
		return s
	}
	return sqL2Generic(a, b)
}

// dotNormF32 returns (a·b, a·a, b·b) in one pass over equal-length a and b.
func dotNormF32(a, b []float32) (dot, na, nb float64) {
	var d0, d1, a0, a1, b0, b1 float32
	i := 0
	for ; i+2 <= len(a); i += 2 {
		x0, x1 := a[i], a[i+1]
		y0, y1 := b[i], b[i+1]
		d0 += x0 * y0
		d1 += x1 * y1
		a0 += x0 * x0
		a1 += x1 * x1
		b0 += y0 * y0
		b1 += y1 * y1
	}
	if i < len(a) {
		x, y := a[i], b[i]
		d0 += x * y
		a0 += x * x
		b0 += y * y
	}
	return float64(d0) + float64(d1), float64(a0) + float64(a1), float64(b0) + float64(b1)
}

// dotGeneric is the portable unrolled dot product: four independent
// accumulators hide the FP add latency the naive loop serializes on.
func dotGeneric(a, b []float32) float64 {
	var s0, s1, s2, s3 float32
	i := 0
	if len(a) == len(b) { // help bounds-check elimination
		for ; i+4 <= len(a); i += 4 {
			s0 += a[i] * b[i]
			s1 += a[i+1] * b[i+1]
			s2 += a[i+2] * b[i+2]
			s3 += a[i+3] * b[i+3]
		}
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return float64(s0+s2) + float64(s1+s3)
}

// sqL2Generic is the portable unrolled squared-L2 kernel.
func sqL2Generic(a, b []float32) float64 {
	var s0, s1, s2, s3 float32
	i := 0
	if len(a) == len(b) {
		for ; i+4 <= len(a); i += 4 {
			d0 := a[i] - b[i]
			d1 := a[i+1] - b[i+1]
			d2 := a[i+2] - b[i+2]
			d3 := a[i+3] - b[i+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return float64(s0+s2) + float64(s1+s3)
}

// DotInt8 returns the integer inner product of equal-length int8 vectors.
// Accumulation is exact in int32: |sum| <= len * 127 * 127, safe for any
// dimensionality this repository uses (overflow needs len > 133,000).
func DotInt8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic("embed: kernel length mismatch")
	}
	if s, ok := dotInt8Arch(a, b); ok {
		return s
	}
	return dotInt8Generic(a, b)
}

func dotInt8Generic(a, b []int8) int32 {
	var s0, s1, s2, s3 int32
	i := 0
	if len(a) == len(b) {
		for ; i+4 <= len(a); i += 4 {
			s0 += int32(a[i]) * int32(b[i])
			s1 += int32(a[i+1]) * int32(b[i+1])
			s2 += int32(a[i+2]) * int32(b[i+2])
			s3 += int32(a[i+3]) * int32(b[i+3])
		}
	}
	for ; i < len(a); i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return s0 + s1 + s2 + s3
}

// DotInt8Rows writes out[r] = q · rows[r*len(q):(r+1)*len(q)] for every r:
// one call scores a block of contiguous row-major int8 codes against one
// query code, so a scan pays the call, the query loads and the horizontal
// reduction once per block (amd64: once per four rows) instead of once per
// row. rows must not contain -128 — QuantizeInto never emits it — because
// the AVX2 path multiplies |q| by sign-adjusted rows in int16 pairs, which
// stay within 2*128*127 and so never saturate only under that bound.
// Accumulation is exact in int32, as in DotInt8.
func DotInt8Rows(out []int32, q, rows []int8) {
	if len(rows) != len(out)*len(q) {
		panic("embed: kernel length mismatch")
	}
	if dotInt8RowsArch(out, q, rows) {
		return
	}
	dotInt8RowsGeneric(out, q, rows)
}

func dotInt8RowsGeneric(out []int32, q, rows []int8) {
	dim := len(q)
	for r := range out {
		out[r] = dotInt8Generic(q, rows[r*dim:(r+1)*dim])
	}
}

// The heads plane. A row's head is its first HeadLen code bytes, and the
// plane stores heads in blocks of headRows rows, headBlockLen bytes each.
// In a block, group k of every row's head (its bytes 4k..4k+3) sits
// together: row r's group k is at k*headRows*4 + r*4. So one 64-byte line
// holds a group of all sixteen rows, and one multiply-add of the query's
// group k, broadcast, scores them all with no horizontal reduction. Each
// byte is stored with its sign bit flipped (code ^ 0x80, which read
// unsigned is code+128), the unsigned operand of VPDPBUSD; a kernel takes
// 128·Σq off at the end. A plane of n rows is HeadPlaneLen(n) bytes, and
// the slots past row n in its last block are never read.
const (
	HeadLen      = 32
	headRows     = 16
	headBlockLen = headRows * HeadLen // 512

	headGroupLen = headRows * 4 // one 4-byte group of every row in a block
)

// HeadPlaneLen is the length of a heads plane of n rows: whole blocks.
func HeadPlaneLen(n int) int {
	return (n + headRows - 1) / headRows * headBlockLen
}

// SetHead writes head, a row's first HeadLen code bytes, as row i of the
// heads plane, which must hold at least i+1 rows. head must not contain
// -128 (QuantizeInto never emits it): the AVX2 kernel cannot negate it.
func SetHead(plane []uint8, i int, head []int8) {
	head = head[:HeadLen]
	blk := plane[i/headRows*headBlockLen:][:headBlockLen]
	at := i % headRows * 4
	for k := 0; k < HeadLen/4; k++ {
		g := blk[k*headGroupLen+at:][:4]
		for j := range g {
			g[j] = uint8(head[4*k+j]) ^ 0x80
		}
	}
}

// headDot is q's dot with row r's head in the plane.
func headDot(q []int8, plane []uint8, r int) int32 {
	qa := (*[HeadLen]int8)(q)
	g := (*[headBlockLen - headGroupLen + 4]uint8)(plane[r/headRows*headBlockLen+r%headRows*4:])
	var s0, s1, s2, s3 int32
	for k := 0; k < HeadLen/4; k++ {
		s0 += int32(qa[4*k]) * (int32(g[k*headGroupLen]) - 128)
		s1 += int32(qa[4*k+1]) * (int32(g[k*headGroupLen+1]) - 128)
		s2 += int32(qa[4*k+2]) * (int32(g[k*headGroupLen+2]) - 128)
		s3 += int32(qa[4*k+3]) * (int32(g[k*headGroupLen+3]) - 128)
	}
	return s0 + s1 + s2 + s3
}

// HeadCut is the query side of DotInt8HeadsPass's test: a row with head
// dot h and weights cosw, tailw, qerrw is below the cut when
// float32(h)*cosw + Tail*tailw + Err*qerrw < Cut. It is vector's cosine
// head bound, which proves such a row below a search's floor.
type HeadCut struct {
	Tail, Err, Cut float32
}

// Below is the test for one row, and the reference the assembly kernels
// reproduce bit for bit: each product rounded to float32 on its own (the
// conversions keep a compiler from fusing them into an FMA), summed left
// to right, compared with <, so a NaN sum is never below and a +Inf
// weight never is either.
func (c HeadCut) Below(h int32, cosw, tailw, qerrw float32) bool {
	return float32(float32(h)*cosw)+float32(c.Tail*tailw)+float32(c.Err*qerrw) < c.Cut
}

// DotInt8HeadsPass scores the first len(dots) rows of a heads plane
// (HeadPlaneLen(len(dots)) bytes, see SetHead) against the query head q,
// writes the dots to dots, and writes to pass the row offsets, ascending,
// of the rows c does not prove Below the cut, returning how many there
// are. One call covers at most 256 rows, so an offset fits a byte; pass
// must hold len(dots) of them. The assembly paths score a block of sixteen
// rows at a time and test them in the same pass, so a row that is below
// costs no Go at all; the rows past the last whole block take the Go
// reference.
func DotInt8HeadsPass(dots []int32, pass []uint8, q []int8, heads []uint8, cosw, tailw, qerrw []float32, c HeadCut) int {
	n := len(dots)
	if len(q) != HeadLen || len(heads) != HeadPlaneLen(n) || len(cosw) != n || len(tailw) != n || len(qerrw) != n || len(pass) < n {
		panic("embed: kernel length mismatch")
	}
	if n > 256 {
		panic("embed: more heads than a byte can index")
	}
	r, np := dotInt8HeadsPassArch(dots, pass, q, heads, cosw, tailw, qerrw, c)
	return dotInt8HeadsPassGeneric(dots, pass, q, heads, cosw, tailw, qerrw, c, r, np)
}

// dotInt8HeadsPassGeneric is DotInt8HeadsPass from row r on, np survivors
// already written: the reference whole (r = np = 0), and the assembly
// paths' tail.
func dotInt8HeadsPassGeneric(dots []int32, pass []uint8, q []int8, heads []uint8, cosw, tailw, qerrw []float32, c HeadCut, r, np int) int {
	for ; r < len(dots); r++ {
		h := headDot(q, heads, r)
		dots[r] = h
		pass[np] = uint8(r)
		if !c.Below(h, cosw[r], tailw[r], qerrw[r]) {
			np++
		}
	}
	return np
}

// QuantizeInto symmetrically int8-quantizes v into code (len(v) entries),
// returning the scale such that float32(code[i])*scale ≈ v[i]. The zero
// vector quantizes to all-zero codes with scale 0.
//
// Error bound: per component |v[i] - code[i]*scale| <= scale/2 =
// max|v|/254, so for unit-norm embeddings an approximate dot product is
// within ~dim * (max|a| * max|b|) / 254 of exact — in practice well under
// 1e-2 for the hashed 128-dim embeddings, which is why the quantized scan
// is used as a prefilter with exact rescoring, never as the final score.
func QuantizeInto(code []int8, v Vector) (scale float32) {
	if len(code) != len(v) {
		panic("embed: quantize length mismatch")
	}
	var maxAbs float32
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > maxAbs {
			maxAbs = x
		}
	}
	if maxAbs == 0 {
		for i := range code {
			code[i] = 0
		}
		return 0
	}
	inv := 127 / maxAbs
	for i, x := range v {
		q := x * inv
		if q >= 0 {
			code[i] = int8(q + 0.5)
		} else {
			code[i] = int8(q - 0.5)
		}
	}
	return maxAbs / 127
}

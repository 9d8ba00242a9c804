// Distance kernels: the innermost loops of every vector scan in the
// repository (flat search, IVF cells, PQ codebooks, HNSW beams, cosine
// similarity on the semantic-cache path).
//
// Three layers:
//
//   - exported helpers (Dot, SqL2, DotInt8, DotInt8Rows, QuantizeInto) with
//     the package's length-guard semantics;
//   - portable 4-wide unrolled implementations (dotGeneric & co) that break
//     the floating-point dependency chain so the scalar path pipelines;
//   - an amd64 AVX2+FMA fast path (kernels_amd64.s), selected at startup by
//     CPUID feature detection, with the generic code as fallback and tail
//     handler.
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

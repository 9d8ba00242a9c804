package embed

// AVX2+FMA dispatch for the distance kernels. Feature detection runs once
// at startup via CPUID/XGETBV (kernels_amd64.s); on CPUs without AVX2+FMA
// — or when the OS does not save YMM state — every kernel falls back to
// the portable generic code.

//go:noescape
func cpuidAsm(leaf, sub uint32) (ax, bx, cx, dx uint32)

//go:noescape
func xgetbvAsm() (ax, dx uint32)

//go:noescape
func dotAVX2(a, b *float32, n int) float32

//go:noescape
func sqL2AVX2(a, b *float32, n int) float32

//go:noescape
func dotInt8AVX2(a, b *int8, n int) int32

//go:noescape
func dotInt8RowsAVX2(out *int32, q, rows *int8, n, stride, nrows int)

var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, cx, _ := cpuidAsm(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if cx&fma == 0 || cx&osxsave == 0 || cx&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves YMM state on context
	// switch. Without this, executing VEX-encoded code faults.
	if ax, _ := xgetbvAsm(); ax&6 != 6 {
		return false
	}
	_, bx, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	return bx&avx2 != 0
}

// archMinLen is the vector length below which the SIMD call overhead
// exceeds its win and the generic kernel is used instead.
const archMinLen = 16

func dotArch(a, b []float32) (float64, bool) {
	if !useAVX2 || len(a) < archMinLen {
		return 0, false
	}
	n := len(a) &^ 7
	s := float64(dotAVX2(&a[0], &b[0], n))
	for i := n; i < len(a); i++ {
		s += float64(a[i] * b[i])
	}
	return s, true
}

func sqL2Arch(a, b []float32) (float64, bool) {
	if !useAVX2 || len(a) < archMinLen {
		return 0, false
	}
	n := len(a) &^ 7
	s := float64(sqL2AVX2(&a[0], &b[0], n))
	for i := n; i < len(a); i++ {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s, true
}

func dotInt8Arch(a, b []int8) (int32, bool) {
	if !useAVX2 || len(a) < archMinLen {
		return 0, false
	}
	n := len(a) &^ 15
	s := dotInt8AVX2(&a[0], &b[0], n)
	for i := n; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s, true
}

// rowsMinLen is the row length below which the rows kernel has no full
// 32-byte chunk to work on.
const rowsMinLen = 32

func dotInt8RowsArch(out []int32, q, rows []int8) bool {
	if !useAVX2 || len(q) < rowsMinLen || len(out) == 0 {
		return false
	}
	dim := len(q)
	n := dim &^ 31
	dotInt8RowsAVX2(&out[0], &q[0], &rows[0], n, dim, len(out))
	if n < dim {
		for r := range out {
			out[r] += dotInt8Generic(q[n:], rows[r*dim+n:(r+1)*dim])
		}
	}
	return true
}

package embed

// AVX2+FMA dispatch for the distance kernels. Feature detection runs once
// at startup via CPUID/XGETBV (kernels_amd64.s); on CPUs without AVX2+FMA
// — or when the OS does not save YMM state — every kernel falls back to
// the portable generic code. DotInt8HeadsPass runs its AVX-512 VNNI kernel
// ahead of the AVX2 one where the CPU has it and the OS saves ZMM state.

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

//go:noescape
func dotInt8HeadsPassAVX2(dots *int32, pass *uint8, q *int8, heads *uint8, cosw, tailw, qerrw *float32, nrows int, tail, err, cut float32) int

//go:noescape
func dotInt8HeadsPassVNNI(dots *int32, pass *uint8, q *int8, heads *uint8, cosw, tailw, qerrw *float32, nrows int, tail, err, cut float32) int

var (
	useAVX2 = detectAVX2()
	useVNNI = detectVNNI()
)

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

// detectVNNI reports whether the heads kernel's AVX-512 VNNI path can run:
// CPUID has AVX512F, AVX512BW and AVX512_VNNI, and XCR0 has bits 1 and 2
// (SSE and AVX state), 5 (the opmask registers), 6 and 7 (the upper halves
// of Z0–Z15 and all of Z16–Z31), which the OS must save for the kernel's
// registers to survive a context switch.
func detectVNNI() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, cx, _ := cpuidAsm(1, 0); cx&osxsave == 0 {
		return false // XGETBV would fault
	}
	if ax, _ := xgetbvAsm(); ax&0xe6 != 0xe6 {
		return false
	}
	_, bx, cx, _ := cpuidAsm(7, 0)
	const (
		avx512f    = 1 << 16 // EBX
		avx512bw   = 1 << 30 // EBX
		avx512vnni = 1 << 11 // ECX
	)
	return bx&avx512f != 0 && bx&avx512bw != 0 && cx&avx512vnni != 0
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

// dotInt8HeadsPassArch runs the best heads kernel the CPU has over the
// plane's whole blocks and returns how many rows it covered and how many
// of them passed; the generic code takes the rest.
func dotInt8HeadsPassArch(dots []int32, pass []uint8, q []int8, heads []uint8, cosw, tailw, qerrw []float32, c HeadCut) (int, int) {
	switch {
	case useVNNI:
		return headsPassVNNI(dots, pass, q, heads, cosw, tailw, qerrw, c)
	case useAVX2:
		return headsPassAVX2(dots, pass, q, heads, cosw, tailw, qerrw, c)
	}
	return 0, 0
}

// headsPassVNNI is dotInt8HeadsPassArch on the AVX-512 VNNI kernel.
func headsPassVNNI(dots []int32, pass []uint8, q []int8, heads []uint8, cosw, tailw, qerrw []float32, c HeadCut) (int, int) {
	n := len(dots) &^ (headRows - 1)
	if n == 0 {
		return 0, 0
	}
	return n, dotInt8HeadsPassVNNI(&dots[0], &pass[0], &q[0], &heads[0], &cosw[0], &tailw[0], &qerrw[0], n, c.Tail, c.Err, c.Cut)
}

// headsPassAVX2 is dotInt8HeadsPassArch on the AVX2 kernel.
func headsPassAVX2(dots []int32, pass []uint8, q []int8, heads []uint8, cosw, tailw, qerrw []float32, c HeadCut) (int, int) {
	n := len(dots) &^ (headRows - 1)
	if n == 0 {
		return 0, 0
	}
	return n, dotInt8HeadsPassAVX2(&dots[0], &pass[0], &q[0], &heads[0], &cosw[0], &tailw[0], &qerrw[0], n, c.Tail, c.Err, c.Cut)
}

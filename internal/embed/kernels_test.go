package embed

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func randVec(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

// refDot is the straightforward sequential float64 reference.
func refDot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func refSqL2(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// Lengths chosen to hit every code path: below archMinLen, odd tails,
// exact multiples of the 8- and 32-wide strides.
var kernelLens = []int{0, 1, 3, 7, 8, 15, 16, 17, 31, 32, 33, 64, 100, 128, 256, 300}

func TestDotKernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range kernelLens {
		a, b := randVec(r, n), randVec(r, n)
		got := dotF32(a, b)
		want := refDot(a, b)
		tol := 1e-4 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Errorf("dotF32 len=%d: got %v, want %v", n, got, want)
		}
	}
}

func TestSqL2KernelMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range kernelLens {
		a, b := randVec(r, n), randVec(r, n)
		got := sqL2F32(a, b)
		want := refSqL2(a, b)
		tol := 1e-4 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Errorf("sqL2F32 len=%d: got %v, want %v", n, got, want)
		}
	}
}

func TestDotNormMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range kernelLens {
		a, b := randVec(r, n), randVec(r, n)
		dot, na, nb := dotNormF32(a, b)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"dot", dot, refDot(a, b)},
			{"na", na, refDot(a, a)},
			{"nb", nb, refDot(b, b)},
		} {
			tol := 1e-4 * (1 + math.Abs(c.want))
			if math.Abs(c.got-c.want) > tol {
				t.Errorf("dotNormF32 len=%d %s: got %v, want %v", n, c.name, c.got, c.want)
			}
		}
	}
}

// TestDotInt8Exact: integer accumulation has no rounding, so the SIMD and
// generic paths must agree exactly with the reference.
func TestDotInt8Exact(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range kernelLens {
		a := make([]int8, n)
		b := make([]int8, n)
		for i := range a {
			a[i] = int8(r.Intn(256) - 128)
			b[i] = int8(r.Intn(256) - 128)
		}
		var want int32
		for i := range a {
			want += int32(a[i]) * int32(b[i])
		}
		if got := DotInt8(a, b); got != want {
			t.Errorf("DotInt8 len=%d: got %d, want %d", n, got, want)
		}
		if got := dotInt8Generic(a, b); got != want {
			t.Errorf("dotInt8Generic len=%d: got %d, want %d", n, got, want)
		}
	}
}

func TestDotInt8ExtremesNoOverflow(t *testing.T) {
	// Worst case per pair is (-128)*(-128); 2048 dims stays far from
	// int32 overflow and must be exact.
	n := 2048
	a := make([]int8, n)
	b := make([]int8, n)
	for i := range a {
		a[i], b[i] = -128, -128
	}
	want := int32(n) * 128 * 128
	if got := DotInt8(a, b); got != want {
		t.Errorf("DotInt8 extremes: got %d, want %d", got, want)
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"dotF32":   func() { dotF32([]float32{1}, []float32{1, 2}) },
		"sqL2F32":  func() { sqL2F32([]float32{1}, []float32{1, 2}) },
		"DotInt8":  func() { DotInt8([]int8{1}, []int8{1, 2}) },
		"Quantize": func() { QuantizeInto(make([]int8, 3), Vector{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestQuantizeIntoBounds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 64, 128, 300} {
		v := Vector(randVec(r, n))
		code := make([]int8, n)
		scale := QuantizeInto(code, v)
		if scale < 0 {
			t.Fatalf("negative scale %v", scale)
		}
		var maxAbs float64
		for _, x := range v {
			maxAbs = math.Max(maxAbs, math.Abs(float64(x)))
		}
		// Documented bound: per component |v[i] - code[i]*scale| <= scale/2.
		for i := range v {
			err := math.Abs(float64(v[i]) - float64(code[i])*float64(scale))
			if err > float64(scale)/2+1e-7 {
				t.Errorf("len=%d component %d: error %v exceeds scale/2 = %v",
					n, i, err, scale/2)
			}
		}
		// Extremes map to ±127.
		for i := range v {
			if math.Abs(float64(v[i])) == maxAbs && maxAbs > 0 {
				if code[i] != 127 && code[i] != -127 {
					t.Errorf("max-magnitude component quantized to %d", code[i])
				}
			}
		}
	}
}

func TestQuantizeZeroVector(t *testing.T) {
	code := []int8{5, -5, 5}
	if scale := QuantizeInto(code, Vector{0, 0, 0}); scale != 0 {
		t.Errorf("zero vector scale = %v, want 0", scale)
	}
	for i, c := range code {
		if c != 0 {
			t.Errorf("code[%d] = %d, want 0", i, c)
		}
	}
}

// TestQuantizedDotApproximatesExact checks the bound the quantized
// prefilter relies on: for unit-norm embeddings the int8 dot recovers the
// float dot to well under the rescore margin.
func TestQuantizedDotApproximatesExact(t *testing.T) {
	e := New(DefaultDim)
	texts := []string{
		"what are the names of stadiums that had concerts",
		"show stadium names with concerts in 2014",
		"predict execution time of analytical join queries",
		"cache the generated answer for similar prompts",
	}
	q := e.Text("stadium concert names")
	qc := make([]int8, e.dim)
	qs := QuantizeInto(qc, q)
	for _, s := range texts {
		v := e.Text(s)
		vc := make([]int8, e.dim)
		vs := QuantizeInto(vc, v)
		exact := Dot(q, v)
		approx := float64(DotInt8(qc, vc)) * float64(qs) * float64(vs)
		if math.Abs(exact-approx) > 0.05 {
			t.Errorf("quantized dot %v vs exact %v for %q", approx, exact, s)
		}
	}
}

func BenchmarkDotF32(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	x, y := randVec(r, DefaultDim), randVec(r, DefaultDim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF64 = dotF32(x, y)
	}
}

func BenchmarkDotGeneric(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	x, y := randVec(r, DefaultDim), randVec(r, DefaultDim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF64 = dotGeneric(x, y)
	}
}

func BenchmarkDotInt8(b *testing.B) {
	x := make([]int8, DefaultDim)
	y := make([]int8, DefaultDim)
	for i := range x {
		x[i], y[i] = int8(i), int8(-i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkI32 = DotInt8(x, y)
	}
}

var (
	sinkF64 float64
	sinkI32 int32
)

// rowsFromBytes maps fuzz bytes onto the kernel's domain: every int8 value
// except -128, which DotInt8Rows excludes from rows.
func rowsFromBytes(b []byte) []int8 {
	out := make([]int8, len(b))
	for i, x := range b {
		if out[i] = int8(x); out[i] == -128 {
			out[i] = -127
		}
	}
	return out
}

// checkDotInt8Rows compares DotInt8Rows (the AVX2 kernel where the CPU has
// it) with the per-row generic reference, exactly.
func checkDotInt8Rows(t *testing.T, q, rows []int8) {
	t.Helper()
	dim := len(q)
	got := make([]int32, len(rows)/dim)
	DotInt8Rows(got, q, rows)
	for r := range got {
		if want := dotInt8Generic(q, rows[r*dim:(r+1)*dim]); got[r] != want {
			t.Fatalf("dim %d, row %d of %d: got %d, want %d", dim, r, len(got), got[r], want)
		}
	}
}

func TestDotInt8RowsExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 16, 31, 32, 33, 64, 100, 128, 160, 300} {
		for _, nrows := range []int{0, 1, 3, 4, 5, 8, 255, 256, 257} {
			raw := make([]byte, (nrows+1)*dim)
			r.Read(raw)
			codes := rowsFromBytes(raw)
			checkDotInt8Rows(t, codes[:dim], codes[dim:])
		}
	}
	// The int16 pair bound: every product at its extreme, both signs.
	for _, qv := range []int8{-128, -127, 127} {
		for _, rv := range []int8{-127, 127} {
			q, rows := make([]int8, 128), make([]int8, 5*128)
			for i := range q {
				q[i] = qv
			}
			for i := range rows {
				rows[i] = rv
			}
			checkDotInt8Rows(t, q, rows)
		}
	}
}

func TestDotInt8RowsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DotInt8Rows did not panic on a rows length that is not len(out)*len(q)")
		}
	}()
	DotInt8Rows(make([]int32, 2), make([]int8, 4), make([]int8, 7))
}

// FuzzDotInt8Rows is the differential test of the rows kernel: whatever
// path DotInt8Rows dispatches to must agree with dotInt8Generic on every
// row. The first byte picks the dimension, so the fuzzer reaches dims
// that are and are not multiples of 32 and row counts that do not fill a
// four-row pass or a scan block.
func FuzzDotInt8Rows(f *testing.F) {
	fill := func(dim, nrows int, v byte) []byte {
		b := make([]byte, 1+(nrows+1)*dim)
		b[0] = byte(dim)
		for i := 1; i < len(b); i++ {
			b[i] = v
		}
		return b
	}
	mixed := func(dim, nrows int) []byte {
		b := fill(dim, nrows, 0)
		for i := 1; i < len(b); i++ {
			b[i] = byte(i * 37)
		}
		return b
	}
	f.Add(mixed(128, 1))               // one row
	f.Add(mixed(128, 7))               // a four-row pass and a remainder
	f.Add(mixed(32, 9))                // exactly one chunk per row
	f.Add(mixed(100, 6))               // dim not a multiple of 32: Go tail
	f.Add(mixed(33, 5))                // one chunk plus a one-byte tail
	f.Add(mixed(16, 4))                // below the kernel's minimum length
	f.Add(mixed(64, 70))               // rows that do not fill a block
	f.Add(fill(128, 3, 0))             // zero query, zero rows
	f.Add(fill(96, 5, 127))            // all +127
	f.Add(fill(96, 5, 0x81))           // all -127
	f.Add(append([]byte{64}, 0x80, 1)) // fewer bytes than one query
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		dim := int(b[0])
		if dim == 0 || len(b)-1 < dim {
			return
		}
		codes := rowsFromBytes(b[1:])
		q, rows := codes[:dim], codes[dim:]
		rows = rows[:len(rows)/dim*dim]
		checkDotInt8Rows(t, q, rows)
	})
}

// FuzzFloatKernels is the differential test of the float kernels: whatever
// dotF32 and sqL2F32 dispatch to (the AVX2+FMA assembly where the CPU has
// it) and the two-lane dotNormF32 must agree with the portable dotGeneric /
// sqL2Generic. The first byte picks the length, 0-67, so the fuzzer reaches
// the generic path below archMinLen, the 32-wide loop, the 8-wide loop and
// every Go tail after them; the rest is the two vectors as raw float32
// bits. FMA and the lane split round differently, so agreement is within a
// tolerance relative to the sum of the terms' magnitudes (not to the
// result, which cancellation can leave arbitrarily small), plus a floor
// for terms that round in the denormal range.
func FuzzFloatKernels(f *testing.F) {
	seed := func(n int, a, b func(i int) float32) []byte {
		out := make([]byte, 1, 1+8*n)
		out[0] = byte(n)
		for _, gen := range []func(int) float32{a, b} {
			for i := 0; i < n; i++ {
				out = binary.LittleEndian.AppendUint32(out, math.Float32bits(gen(i)))
			}
		}
		return out
	}
	ramp := func(i int) float32 { return float32(i%13) - 5.5 }
	wave := func(i int) float32 { return float32(math.Sin(float64(i))) * 3 }
	for _, n := range []int{0, 1, 7, 8, 15, 16, 17, 23, 24, 31, 32, 33, 40, 47, 63, 64, 67} {
		f.Add(seed(n, ramp, wave))
	}
	f.Add(seed(48, ramp, ramp))                                                             // a == b: sqL2 is 0
	f.Add(seed(35, wave, func(i int) float32 { return -wave(i) }))                          // dot cancels to -|a|²
	f.Add(seed(67, func(int) float32 { return 0 }, wave))                                   // a zero vector
	f.Add(seed(41, func(int) float32 { return 1e14 }, func(int) float32 { return -1e-14 })) // wide exponent range
	f.Add(seed(33, func(int) float32 { return 1e-21 }, func(int) float32 { return 2e-21 })) // products denormal
	f.Add([]byte{20, 1, 2, 3})                                                              // fewer bytes than two vectors
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		n := int(in[0]) % 68
		if len(in)-1 < 8*n {
			return
		}
		vecs := make([]float32, 2*n)
		for i := range vecs {
			x := math.Float32frombits(binary.LittleEndian.Uint32(in[1+4*i:]))
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return
			}
			vecs[i] = x
		}
		a, b := vecs[:n], vecs[n:]

		// scale sums the magnitudes of the terms term(i) adds up.
		scale := func(term func(i int) float64) float64 {
			var s float64
			for i := 0; i < n; i++ {
				s += math.Abs(term(i))
			}
			return s
		}
		check := func(name string, got, want, scale float64) {
			t.Helper()
			if scale > 1e30 {
				return // float32 partial sums may overflow, differently per lane split
			}
			if math.Abs(got-want) > 1e-4*scale+1e-40 {
				t.Errorf("%s len=%d: kernel %v, generic %v (terms sum to %v)", name, n, got, want, scale)
			}
		}
		ab := scale(func(i int) float64 { return float64(a[i]) * float64(b[i]) })
		aa := scale(func(i int) float64 { return float64(a[i]) * float64(a[i]) })
		bb := scale(func(i int) float64 { return float64(b[i]) * float64(b[i]) })
		check("dotF32", dotF32(a, b), dotGeneric(a, b), ab)
		check("sqL2F32", sqL2F32(a, b), sqL2Generic(a, b), scale(func(i int) float64 {
			d := float64(a[i]) - float64(b[i])
			return d * d
		}))
		dot, na, nb := dotNormF32(a, b)
		check("dotNormF32 dot", dot, dotGeneric(a, b), ab)
		check("dotNormF32 na", na, dotGeneric(a, a), aa)
		check("dotNormF32 nb", nb, dotGeneric(b, b), bb)
	})
}

func BenchmarkDotInt8Rows(b *testing.B) {
	const nrows = 256
	q := make([]int8, DefaultDim)
	rows := make([]int8, nrows*DefaultDim)
	for i := range q {
		q[i] = int8(i)
	}
	for i := range rows {
		rows[i] = int8(i % 127)
	}
	out := make([]int32, nrows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DotInt8Rows(out, q, rows)
	}
	sinkI32 = out[nrows-1]
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nrows), "ns/row")
}

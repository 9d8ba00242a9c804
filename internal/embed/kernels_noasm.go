//go:build !amd64

package embed

// Non-amd64 architectures use the portable unrolled kernels.

func dotArch(a, b []float32) (float64, bool)           { return 0, false }
func sqL2Arch(a, b []float32) (float64, bool)          { return 0, false }
func dotInt8Arch(a, b []int8) (int32, bool)            { return 0, false }
func dotInt8RowsArch(out []int32, q, rows []int8) bool { return false }

func dotInt8HeadsPassArch(dots []int32, pass []uint8, q []int8, heads []uint8, cosw, tailw, qerrw []float32, c HeadCut) (int, int) {
	return 0, 0
}

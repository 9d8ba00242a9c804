//go:build !amd64

package embed

// Non-amd64 architectures use the portable unrolled kernels.

func dotArch(a, b []float32) (float64, bool)           { return 0, false }
func sqL2Arch(a, b []float32) (float64, bool)          { return 0, false }
func dotInt8Arch(a, b []int8) (int32, bool)            { return 0, false }
func dotInt8RowsArch(out []int32, q, rows []int8) bool { return false }

package kernels

// Assembly forms of the merged CG step's row bursts (leaves_amd64.s),
// called only when simd.AVX2 is true. Each takes its arguments exactly as
// the Go burst of the same name does and writes the same bits.

//go:noescape
func cgStepPXAVX2(ms, rs, ps, xs []float64, beta, alpha float64)

//go:noescape
func cgStepSRAVX2(ms, rs, ws, ss []float64, beta, alpha float64, l *CGStepLanes)

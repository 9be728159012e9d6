package kernels

// Assembly forms of the merged CG step's row bursts (leaves_amd64.s),
// called only when simd.AVX2 is true. Each takes its arguments as the Go
// burst of the same name does — cgStepSRAVX2 those of cgStepSRGo, or of
// cgStepSRLGo for a non-nil ls — and writes the same bits.

//go:noescape
func cgStepPXAVX2(ms, rs, ps, xs []float64, beta, alpha float64)

//go:noescape
func cgStepSRAVX2(ms, rs, ws, ls, ss []float64, beta, alpha float64, l *CGStepLanes)

//go:build !amd64

package kernels

// Off amd64 simd.AVX2 is false and the Go bursts are the only path; these
// stand-ins exist so the dispatching bursts compile.

func cgStepPXAVX2(ms, rs, ps, xs []float64, beta, alpha float64) {
	panic("kernels: AVX2 leaf called off amd64")
}

func cgStepSRAVX2(ms, rs, ws, ls, ss []float64, beta, alpha float64, l *CGStepLanes) {
	panic("kernels: AVX2 leaf called off amd64")
}

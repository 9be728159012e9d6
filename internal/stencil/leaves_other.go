//go:build !amd64

package stencil

// Off amd64 simd.AVX2 is false and the Go leaves are the only path; these
// stand-ins exist so the dispatching leaves compile.

func applyDotRow5AVX2(kxs, kyn, kys, pn, pso, pc, ws []float64, pw *[4]float64) {
	panic("stencil: AVX2 leaf called off amd64")
}

func applyPreDotRow5AVX2(kxs, kyn, kys, un, us, uc, ws []float64, uw *[2]float64) {
	panic("stencil: AVX2 leaf called off amd64")
}

func chebyRow5AVX2(kx, ks, kn, p, ps, pn, rs, ms, ns, zs []float64, alpha, beta float64) {
	panic("stencil: AVX2 leaf called off amd64")
}

func applyDotRowAVX2(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64, dot float64) float64 {
	panic("stencil: AVX2 leaf called off amd64")
}

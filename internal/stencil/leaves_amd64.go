package stencil

// Assembly forms of the 2D row leaves (leaves_amd64.s) and the 3D dot
// leaf (leaves7_amd64.s), called only when simd.AVX2 is true. Each takes its
// arguments exactly as the Go leaf of the same name does and writes the
// same bits.

//go:noescape
func applyDotRow5AVX2(kxs, kyn, kys, pn, pso, pc, ws []float64, pw *[4]float64)

//go:noescape
func applyPreDotRow5AVX2(kxs, kyn, kys, un, us, uc, ws []float64, uw *[2]float64)

//go:noescape
func chebyRow5AVX2(kx, ks, kn, p, ps, pn, rs, ms, ns, zs []float64, alpha, beta float64)

//go:noescape
func applyDotRowAVX2(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64, dot float64) float64

package deflate

// The assembly form of the restriction's lane leaf (leaves_amd64.s),
// called only when simd.AVX2 is true. It takes its arguments exactly as
// laneSumGo does and writes the same bits.

//go:noescape
func laneSumAVX2(xs []float64, l *[8]float64)

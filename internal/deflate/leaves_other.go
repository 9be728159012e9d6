//go:build !amd64

package deflate

// Off amd64 simd.AVX2 is false and the Go leaf is the only path; this
// stand-in exists so the dispatching laneSum compiles.

func laneSumAVX2(xs []float64, l *[8]float64) {
	panic("deflate: AVX2 leaf called off amd64")
}

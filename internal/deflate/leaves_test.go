package deflate

import (
	"fmt"
	"testing"

	"tealeaf/internal/simd"
	st "tealeaf/internal/simd/simdtest"
)

// The AVX2 lane leaf must write exactly the lanes the Go leaf writes, for
// every row length (0–67 runs the tail after zero to eight full groups of
// eight), every start offset modulo 32 bytes, carried-in lanes that are
// not zero, and inputs holding −0, subnormals, ±Inf and NaN (any NaN
// matches any NaN — see package simdtest).
func TestLaneSumMatchesGoBitwise(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("no AVX2 on this host: the Go leaf is the only path")
	}
	for _, special := range []bool{false, true} {
		g := st.NewGen(39, special)
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				xs := g.Row(n, off)
				var lGo [8]float64
				for i := range lGo {
					lGo[i] = g.Value()
				}
				lAsm := lGo
				laneSumGo(xs, &lGo)
				laneSumAVX2(xs, &lAsm)
				st.SameRows(t, fmt.Sprintf("n=%d off=%d special=%v laneSum lanes", n, off, special), lAsm[:], lGo[:])
			}
		}
	}
}

// BenchmarkLaneSum prices the lane leaf, Go form against AVX2 form, on
// cache-resident rows: a 64-cell block-column run (512 cells over 8
// blocks, the stiff2d_defl_512_w2 row) and a whole 512-cell row.
func BenchmarkLaneSum(b *testing.B) {
	for _, n := range []int{64, 512} {
		xs := st.NewGen(1, false).Row(n, 0)
		var l [8]float64
		st.BenchPair(b, "laneSum", n, func() { laneSumGo(xs, &l) }, func() { laneSumAVX2(xs, &l) })
	}
}

package kernels

import (
	"fmt"
	"testing"

	"tealeaf/internal/simd"
	st "tealeaf/internal/simd/simdtest"
)

// The AVX2 bursts must write exactly the bits the Go bursts write — burst
// 2 with and without a row of λ taken off w — for every output cell and
// every dot lane, for row lengths 0–67 (every remainder
// path after zero to sixteen full groups), every start offset modulo 32
// bytes, carried-in lanes that are not zero, and inputs holding −0,
// subnormals, ±Inf and NaN (any NaN matches any NaN — see package
// simdtest).
func TestCGStepBurstsMatchGoBitwise(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("no AVX2 on this host: the Go bursts are the only path")
	}
	for _, special := range []bool{false, true} {
		g := st.NewGen(29, special)
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				for _, pre := range []bool{false, true} {
					label := fmt.Sprintf("n=%d off=%d special=%v pre=%v", n, off, special, pre)
					var ms []float64
					if pre {
						ms = g.Row(n, off+3)
					}
					beta, alpha := g.Value(), g.Value()

					r, p, x := g.Row(n, off), g.Row(n, off+1), g.Row(n, off+2)
					rGo, pGo, xGo := st.Clone(r, off), st.Clone(p, off+1), st.Clone(x, off+2)
					rAsm, pAsm, xAsm := st.Clone(r, off), st.Clone(p, off+1), st.Clone(x, off+2)
					cgStepPXGo(ms, rGo, pGo, xGo, beta, alpha)
					cgStepPXAVX2(ms, rAsm, pAsm, xAsm, beta, alpha)
					st.SameRows(t, label+" cgStepPX p", pAsm, pGo)
					st.SameRows(t, label+" cgStepPX x", xAsm, xGo)

					w, s, lam := g.Row(n, off+1), g.Row(n, off+2), g.Row(n, off+3)
					for _, ls := range [][]float64{nil, lam} {
						label := fmt.Sprintf("%s λ=%v", label, ls != nil)
						sGo, sAsm := st.Clone(s, off+2), st.Clone(s, off+2)
						rGo, rAsm := st.Clone(rGo, off), st.Clone(rAsm, off)
						lGo := CGStepLanes{g.Value(), g.Value(), g.Value(), g.Value()}
						lAsm := lGo
						if ls == nil {
							lGo.cgStepSRGo(ms, rGo, w, sGo, beta, alpha)
						} else {
							lGo.cgStepSRLGo(ms, rGo, w, ls, sGo, beta, alpha)
						}
						cgStepSRAVX2(ms, rAsm, w, ls, sAsm, beta, alpha, &lAsm)
						st.SameRows(t, label+" cgStepSR s", sAsm, sGo)
						st.SameRows(t, label+" cgStepSR r", rAsm, rGo)
						st.SameRows(t, label+" cgStepSR lanes",
							[]float64{lAsm.g0, lAsm.g1, lAsm.rr0, lAsm.rr1},
							[]float64{lGo.g0, lGo.g1, lGo.rr0, lGo.rr1})
					}
				}
			}
		}
	}
}

// BenchmarkCGStepBursts prices the merged CG step's row bursts, Go form
// against AVX2 form, on cache-resident rows of 256 and 1024 cells, with
// and without a diagonal preconditioner row.
func BenchmarkCGStepBursts(b *testing.B) {
	for _, n := range []int{256, 1024} {
		g := st.NewGen(1, false)
		r, p, x, w, s, m := g.Row(n, 0), g.Row(n, 0), g.Row(n, 0), g.Row(n, 0), g.Row(n, 0), g.Row(n, 0)
		for _, ms := range [][]float64{nil, m} {
			pre := fmt.Sprintf("pre=%v", ms != nil)
			var l CGStepLanes
			st.BenchPair(b, "cgStepPX/"+pre, n,
				func() { cgStepPXGo(ms, r, p, x, 0.5, 1e-9) },
				func() { cgStepPXAVX2(ms, r, p, x, 0.5, 1e-9) })
			st.BenchPair(b, "cgStepSR/"+pre, n,
				func() { l.cgStepSRGo(ms, r, w, s, 0.5, 1e-9) },
				func() { cgStepSRAVX2(ms, r, w, nil, s, 0.5, 1e-9, &l) })
			st.BenchPair(b, "cgStepSRL/"+pre, n,
				func() { l.cgStepSRLGo(ms, r, w, m, s, 0.5, 1e-9) },
				func() { cgStepSRAVX2(ms, r, w, m, s, 0.5, 1e-9, &l) })
		}
	}
}

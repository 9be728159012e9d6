package stencil

import (
	"fmt"
	"testing"

	"tealeaf/internal/simd"
	st "tealeaf/internal/simd/simdtest"
)

// The AVX2 row leaves must write exactly the bits the Go leaves write:
// every output cell and every dot lane, for every row length (0–67 runs
// each remainder path after zero to sixteen full groups), every start
// offset modulo 32 bytes, carried-in lanes that are not zero, and inputs
// holding −0, subnormals, ±Inf and NaN (any NaN matches any NaN — see
// package simdtest).
func TestRowLeavesMatchGoBitwise(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("no AVX2 on this host: the Go leaves are the only path")
	}
	for _, special := range []bool{false, true} {
		g := st.NewGen(23, special)
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				label := fmt.Sprintf("n=%d off=%d special=%v", n, off, special)
				checkDotRows(t, g, n, off, label)
				checkDotRow7(t, g, n, off, label)
				for _, pre := range []bool{false, true} {
					for _, accum := range []bool{false, true} {
						checkChebyRow(t, g, n, off, pre, accum, label)
					}
				}
			}
		}
	}
}

// checkDotRows runs applyDotRow5 and applyPreDotRow5 both ways on one
// set of rows, each row at its own offset.
func checkDotRows(t *testing.T, g *st.Gen, n, off int, label string) {
	kxs, kyn, kys := g.Row(n+1, off), g.Row(n, off+1), g.Row(n, off+2)
	pn, ps, pc := g.Row(n, off+3), g.Row(n, off), g.Row(n+2, off+1)
	w := g.Row(n, off+2)

	pwGo := [4]float64{g.Value(), g.Value(), g.Value(), g.Value()}
	pwAsm := pwGo
	wGo, wAsm := st.Clone(w, off+2), st.Clone(w, off+2)
	applyDotRow5Go(kxs, kyn, kys, pn, ps, pc, wGo, &pwGo)
	applyDotRow5AVX2(kxs, kyn, kys, pn, ps, pc, wAsm, &pwAsm)
	st.SameRows(t, label+" applyDotRow5 w", wAsm, wGo)
	st.SameRows(t, label+" applyDotRow5 lanes", pwAsm[:], pwGo[:])

	uwGo := [2]float64{g.Value(), g.Value()}
	uwAsm := uwGo
	wGo, wAsm = st.Clone(w, off+2), st.Clone(w, off+2)
	applyPreDotRow5Go(kxs, kyn, kys, pn, ps, pc, wGo, &uwGo)
	applyPreDotRow5AVX2(kxs, kyn, kys, pn, ps, pc, wAsm, &uwAsm)
	st.SameRows(t, label+" applyPreDotRow5 w", wAsm, wGo)
	st.SameRows(t, label+" applyPreDotRow5 lanes", uwAsm[:], uwGo[:])
}

// checkChebyRow runs chebyRow5 both ways, with or without a
// preconditioner row and an accumulator row.
func checkChebyRow(t *testing.T, g *st.Gen, n, off int, pre, accum bool, label string) {
	kx, ks, kn := g.Row(n+1, off), g.Row(n, off+1), g.Row(n, off+2)
	p, ps, pn := g.Row(n+2, off+3), g.Row(n, off), g.Row(n, off+1)
	r, sd := g.Row(n, off+2), g.Row(n, off+3)
	var ms, z []float64
	if pre {
		ms = g.Row(n, off+1)
	}
	if accum {
		z = g.Row(n, off)
	}
	alpha, beta := g.Value(), g.Value()

	rGo, sdGo := st.Clone(r, off+2), st.Clone(sd, off+3)
	rAsm, sdAsm := st.Clone(r, off+2), st.Clone(sd, off+3)
	var zGo, zAsm []float64
	if accum {
		zGo, zAsm = st.Clone(z, off), st.Clone(z, off)
	}
	chebyRow5Go(kx, ks, kn, p, ps, pn, rGo, ms, sdGo, zGo, alpha, beta)
	chebyRow5AVX2(kx, ks, kn, p, ps, pn, rAsm, ms, sdAsm, zAsm, alpha, beta)
	what := fmt.Sprintf("%s pre=%v accum=%v chebyRow5", label, pre, accum)
	st.SameRows(t, what+" r", rAsm, rGo)
	st.SameRows(t, what+" sd", sdAsm, sdGo)
	st.SameRows(t, what+" z", zAsm, zGo)
}

// rows7 draws the ten stencil rows of an n-cell 3D run, each at its own
// offset: kx (n+1), ks, kn, kb, kf, p (n+2), ps, pn, pb, pf.
type rows7 struct{ kx, ks, kn, kb, kf, p, ps, pn, pb, pf []float64 }

func newRows7(g *st.Gen, n, off int) rows7 {
	return rows7{
		kx: g.Row(n+1, off), ks: g.Row(n, off+1), kn: g.Row(n, off+2), kb: g.Row(n, off+3), kf: g.Row(n, off),
		p: g.Row(n+2, off+1), ps: g.Row(n, off+2), pn: g.Row(n, off+3), pb: g.Row(n, off), pf: g.Row(n, off+1),
	}
}

// checkDotRow7 runs applyDotRow both ways on one set of rows, with a
// carried-in δ.
func checkDotRow7(t *testing.T, g *st.Gen, n, off int, label string) {
	r := newRows7(g, n, off)
	w := g.Row(n, off+2)
	dot := g.Value()
	wGo, wAsm := st.Clone(w, off+2), st.Clone(w, off+2)
	dGo := applyDotRowGo(r.kx, r.ks, r.kn, r.kb, r.kf, r.p, r.ps, r.pn, r.pb, r.pf, wGo, dot)
	dAsm := applyDotRowAVX2(r.kx, r.ks, r.kn, r.kb, r.kf, r.p, r.ps, r.pn, r.pb, r.pf, wAsm, dot)
	st.SameRows(t, label+" applyDotRow w", wAsm, wGo)
	st.SameRows(t, label+" applyDotRow δ", []float64{dAsm}, []float64{dGo})
}

// BenchmarkRowLeaves prices each row leaf, Go form against AVX2 form, on
// cache-resident rows: the 2D leaves at 256 and 1024 cells, the 3D
// applyDotRow at 128 (the bm3d_cg_128_w2 row) and 1024.
func BenchmarkRowLeaves(b *testing.B) {
	for _, n := range []int{128, 1024} {
		g := st.NewGen(1, false)
		r := newRows7(g, n, 0)
		w := g.Row(n, 0)
		st.BenchPair(b, "applyDotRow", n,
			func() { applyDotRowGo(r.kx, r.ks, r.kn, r.kb, r.kf, r.p, r.ps, r.pn, r.pb, r.pf, w, 0) },
			func() { applyDotRowAVX2(r.kx, r.ks, r.kn, r.kb, r.kf, r.p, r.ps, r.pn, r.pb, r.pf, w, 0) })
	}
	for _, n := range []int{256, 1024} {
		g := st.NewGen(1, false)
		kx, ky, kn := g.Row(n+1, 0), g.Row(n, 0), g.Row(n, 0)
		p, ps, pn := g.Row(n+2, 0), g.Row(n, 0), g.Row(n, 0)
		r, ms, sd, z, w := g.Row(n, 0), g.Row(n, 0), g.Row(n, 0), g.Row(n, 0), g.Row(n, 0)
		var pw [4]float64
		var uw [2]float64
		st.BenchPair(b, "applyDotRow5", n,
			func() { applyDotRow5Go(kx, kn, ky, pn, ps, p, w, &pw) },
			func() { applyDotRow5AVX2(kx, kn, ky, pn, ps, p, w, &pw) })
		st.BenchPair(b, "applyPreDotRow5", n,
			func() { applyPreDotRow5Go(kx, kn, ky, pn, ps, p, w, &uw) },
			func() { applyPreDotRow5AVX2(kx, kn, ky, pn, ps, p, w, &uw) })
		st.BenchPair(b, "chebyRow5", n,
			func() { chebyRow5Go(kx, ky, kn, p, ps, pn, r, ms, sd, z, 0.9, 1e-9) },
			func() { chebyRow5AVX2(kx, ky, kn, p, ps, pn, r, ms, sd, z, 0.9, 1e-9) })
	}
}

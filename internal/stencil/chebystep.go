package stencil

import (
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// This file is PPCG's inner Chebyshev solve between two halo exchanges:
// the steps one matrix-powers block buys, run as one pass over the grid.
// A step needs w = A·sd only to subtract it from the residual, so the
// matvec is folded into the update that consumes it: per cell of the
// step's bounds b
//
//	w      = (A·sdOld)               (a register, never stored)
//	rtemp -= w
//	sdNew  = α·sdOld + β·(minv ⊙ rtemp)
//
// followed by acc += sdNew (the polynomial's correction) on the cells of
// b inside in.
//
// The direction ping-pongs between two fields: step j reads sd when j is
// even and alt when j is odd, and writes the other. The stencil's input is
// sd itself, not a product that could be recomputed, so an in-place
// update would need the OLD values of cells the row above may already
// have overwritten. With two fields, one step alone is hazard-free under
// any decomposition; several steps in one pass are not, and run in the
// order par.Pool.Wavefront gives them: step j computes row k of the
// walker's outer axis (a z-plane in 3D) once step j−1 has finished rows
// k−1..k+1, and step j+1 overwrites row k of the field step j reads only
// after step j has finished row k+1. Each row of Kx, Ky, rtemp, acc and both direction
// fields then passes through cache once per block instead of once per
// step. Every cell is pointwise and carries no dot product, so the bits
// do not depend on the schedule.
//
// Every cell is computed by the expressions of Apply followed by
// kernels.FusedPPCGInner, operand for operand, so rtemp, both direction
// fields and acc are bit-identical to running the steps one sweep each.

// rowRuns cuts the n cells of a band row into its runs outside and inside
// the interior columns [a0,a1) (offsets into the row) and hands each to
// run with its offset, length and whether it accumulates; inside reports
// whether the row lies in the interior's other axes at all.
func rowRuns(n, a0, a1 int, inside bool, run func(off, n int, acc bool)) {
	if !inside || a1 <= a0 {
		run(0, n, false)
		return
	}
	run(0, a0, false)
	run(a0, a1-a0, true)
	run(a1, n-a1, false)
}

// ChebySteps runs the Chebyshev steps of one matrix-powers block in one
// pass (see the file comment): step j runs over bs[j] with alphas[j] and
// betas[j], rtemp −= A·sdOld, sdNew = α·sdOld + β·(minv ⊙ rtemp), then
// acc += sdNew on the cells of bs[j] inside in, where sdOld is sd for
// even j and alt for odd j and sdNew the other. nil minv selects the
// identity preconditioner. Every field ends as if the steps had run one
// sweep each, in order: step j reads its sdOld one cell beyond bs[j] and
// writes sdNew on bs[j] only. After an odd number of steps the newest
// direction is in alt.
func (op *Operator2D) ChebySteps(pool *par.Pool, bs []grid.Bounds, in grid.Bounds, alphas, betas []float64, sd, alt, rtemp, minv, acc *grid.Field2D) {
	chebySteps(pool, op.sten(), op.Grid, (*grid.Grid2D).Rows, bs, in, alphas, betas, sd.Data, alt.Data, rtemp.Data, minv.DataOrNil(), acc.Data)
}

// ChebySteps is the 3D block of Chebyshev steps — see
// Operator2D.ChebySteps. The wavefront walks z-planes.
func (op *Operator3D) ChebySteps(pool *par.Pool, bs []grid.Bounds3D, in grid.Bounds3D, alphas, betas []float64, sd, alt, rtemp, minv, acc *grid.Field3D) {
	chebySteps(pool, op.sten(), op.Grid, (*grid.Grid3D).Rows, bs, in, alphas, betas, sd.Data, alt.Data, rtemp.Data, minv.DataOrNil(), acc.Data)
}

// chebySteps is the body of ChebySteps over the walker's outer axis. It
// builds each step's walker from bs[j] with rows, a method expression of
// the grid type, as the wavefront reaches it, so a block allocates
// nothing but the wavefront's own callback.
func chebySteps[G, B any](pool *par.Pool, s sten, g G, rows func(G, B) grid.Rows, bs []B, in B, alphas, betas []float64, sd, alt, rd, md, ad []float64) {
	lo, hi := math.MaxInt, math.MinInt
	for _, b := range bs {
		w := rows(g, b)
		lo, hi = min(lo, w.K0), max(hi, w.K1)
	}
	iw := rows(g, in)
	dirs := [2][]float64{sd, alt}
	pool.Wavefront(len(bs), lo, hi, func(j, k int) {
		s := s
		b := rows(g, bs[j])
		if b.Empty() || k < b.K0 || k >= b.K1 {
			return
		}
		od, nd := dirs[j&1], dirs[(j+1)&1]
		alpha, beta := alphas[j], betas[j]
		a0, a1 := max(iw.X0, b.X0)-b.X0, min(iw.X1, b.X1)-b.X0
		inK := k >= iw.K0 && k < iw.K1
		var v vals
		for y := b.J0; y < b.J1; y++ {
			row := b.Off(y, k)
			rowRuns(b.N(), a0, a1, inK && y >= iw.J0 && y < iw.J1, func(off, n int, accum bool) {
				o := row + off
				var ms, zs []float64
				if md != nil {
					ms = md[o : o+n]
				}
				if accum {
					zs = ad[o : o+n]
				}
				s.field(&v, od, o, n)
				s.chebyRow(o, &v, rd[o:o+n], ms, nd[o:o+n:o+n], zs, alpha, beta)
			})
		}
	})
}

package stencil

import (
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/simd"
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
// order par.Pool.Wavefront gives them: step j computes row k (a z-plane
// in 3D) once step j−1 has finished rows k−1..k+1, and step j+1
// overwrites row k of the field step j reads only after step j has
// finished row k+1. Each row of Kx, Ky, rtemp, acc and both direction
// fields then passes through cache once per block instead of once per
// step. Every cell is pointwise and carries no dot product, so the bits
// do not depend on the schedule.
//
// Every cell is computed by the expressions of Apply followed by
// kernels.FusedPPCGInner, operand for operand, so rtemp, both direction
// fields and acc are bit-identical to running the steps one sweep each.

// point5 evaluates one row of the 5-point operator at a cell: the
// diagonal 1 + ΣK times the centre value c minus the four face-weighted
// neighbours — Listing 1's expression, as Apply spells it.
func point5(kw, ke, ks, kn, c, w, e, s, n float64) float64 {
	return (1+(kn+ks)+(ke+kw))*c - (kn*n + ks*s) - (ke*e + kw*w)
}

// The row leaves take a run of n cells and re-slice every row to its
// length, so the loops carry no bounds checks on them. nil ms is the
// identity preconditioner, tested per cell. A nil zs is a run outside the
// interior — a few ring cells per row, or a few ring rows — which
// advances the residual and the direction only; the interior loop also
// adds the new direction to zs while it is still in a register. One loop
// testing zs per cell as well measured 3.15 against 2.55 ns/cell
// (identity) and 3.35 against 2.80 (diagonal) on a serial 512×1024 rank;
// a third loop specialised on the identity measured no faster than the
// per-cell test.

// chebyRow5 is the 2D row leaf. Like the other 2D leaves (see
// applyDotRow5) it takes the x-face row kx and the direction row p
// extended one cell each side, lengths n+1 and n+2; behind simd.AVX2 it
// runs as assembly computing the same bits.
func chebyRow5(kx, ks, kn, p, ps, pn, rs, ms, ns, zs []float64, alpha, beta float64) {
	if simd.AVX2 {
		chebyRow5AVX2(kx, ks, kn, p, ps, pn, rs, ms, ns, zs, alpha, beta)
		return
	}
	chebyRow5Go(kx, ks, kn, p, ps, pn, rs, ms, ns, zs, alpha, beta)
}

// chebyRow5Go is the Go form of chebyRow5. The west face coefficient and
// the west and centre values ride in registers: each is the previous
// cell's east one, and nothing in the sweep writes the field they come
// from.
func chebyRow5Go(kx, ks, kn, p, ps, pn, rs, ms, ns, zs []float64, alpha, beta float64) {
	n := len(ns)
	if n == 0 {
		return
	}
	ke, pe := kx[1:n+1], p[2:n+2]
	ks, kn, ps, pn, rs = ks[:n], kn[:n], ps[:n], pn[:n], rs[:n]
	k0, w, c := kx[0], p[0], p[1]
	if zs == nil {
		for i := range ns {
			k1, e := ke[i], pe[i]
			v := rs[i] - point5(k0, k1, ks[i], kn[i], c, w, e, ps[i], pn[i])
			rs[i] = v
			if ms != nil {
				v = ms[i] * v
			}
			ns[i] = alpha*c + beta*v
			k0, w, c = k1, c, e
		}
		return
	}
	zs = zs[:n]
	for i := range ns {
		k1, e := ke[i], pe[i]
		v := rs[i] - point5(k0, k1, ks[i], kn[i], c, w, e, ps[i], pn[i])
		rs[i] = v
		if ms != nil {
			v = ms[i] * v
		}
		sn := alpha*c + beta*v
		ns[i] = sn
		zs[i] += sn
		k0, w, c = k1, c, e
	}
}

// chebyRow7 is the 3D row leaf: chebyRow5Go with the back and front
// faces, over the 3D leaves' ten stencil rows (see stencil3d.go).
func chebyRow7(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, rs, ms, ns, zs []float64, alpha, beta float64) {
	n := len(ns)
	if n == 0 {
		return
	}
	ke, pe := kx[1:n+1], p[2:n+2]
	ks, kn, kb, kf = ks[:n], kn[:n], kb[:n], kf[:n]
	ps, pn, pb, pf, rs = ps[:n], pn[:n], pb[:n], pf[:n], rs[:n]
	k0, w, c := kx[0], p[0], p[1]
	if zs == nil {
		for i := range ns {
			k1, e := ke[i], pe[i]
			v := rs[i] - point7(k0, k1, ks[i], kn[i], kb[i], kf[i], c, w, e, ps[i], pn[i], pb[i], pf[i])
			rs[i] = v
			if ms != nil {
				v = ms[i] * v
			}
			ns[i] = alpha*c + beta*v
			k0, w, c = k1, c, e
		}
		return
	}
	zs = zs[:n]
	for i := range ns {
		k1, e := ke[i], pe[i]
		v := rs[i] - point7(k0, k1, ks[i], kn[i], kb[i], kf[i], c, w, e, ps[i], pn[i], pb[i], pf[i])
		rs[i] = v
		if ms != nil {
			v = ms[i] * v
		}
		sn := alpha*c + beta*v
		ns[i] = sn
		zs[i] += sn
		k0, w, c = k1, c, e
	}
}

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
	lo, hi := math.MaxInt, math.MinInt
	for _, b := range bs {
		lo, hi = min(lo, b.Y0), max(hi, b.Y1)
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	dirs := [2][]float64{sd.Data, alt.Data}
	rd, ad := rtemp.Data, acc.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pool.Wavefront(len(bs), lo, hi, func(j, k int) {
		b := bs[j]
		if b.Empty() || k < b.Y0 || k >= b.Y1 {
			return
		}
		od, nd := dirs[j&1], dirs[(j+1)&1]
		alpha, beta := alphas[j], betas[j]
		row := g.Index(b.X0, k)
		a0, a1 := max(in.X0, b.X0)-b.X0, min(in.X1, b.X1)-b.X0
		rowRuns(b.X1-b.X0, a0, a1, k >= in.Y0 && k < in.Y1, func(off, n int, accum bool) {
			o := row + off
			var ms, zs []float64
			if md != nil {
				ms = md[o : o+n]
			}
			if accum {
				zs = ad[o : o+n]
			}
			chebyRow5(kx[o:o+n+1], ky[o:o+n], ky[o+s:o+s+n],
				od[o-1:o+n+1], od[o-s:o-s+n], od[o+s:o+s+n],
				rd[o:o+n], ms, nd[o:o+n:o+n], zs, alpha, beta)
		})
	})
}

// ChebySteps is the 3D block of Chebyshev steps — see
// Operator2D.ChebySteps. The wavefront walks z-planes.
func (op *Operator3D) ChebySteps(pool *par.Pool, bs []grid.Bounds3D, in grid.Bounds3D, alphas, betas []float64, sd, alt, rtemp, minv, acc *grid.Field3D) {
	lo, hi := math.MaxInt, math.MinInt
	for _, b := range bs {
		lo, hi = min(lo, b.Z0), max(hi, b.Z1)
	}
	g := op.Grid
	sy, sz := op.strides()
	dirs := [2][]float64{sd.Data, alt.Data}
	rd, ad := rtemp.Data, acc.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pool.Wavefront(len(bs), lo, hi, func(j, k int) {
		b := bs[j]
		if b.Empty() || k < b.Z0 || k >= b.Z1 {
			return
		}
		od, nd := dirs[j&1], dirs[(j+1)&1]
		alpha, beta := alphas[j], betas[j]
		a0, a1 := max(in.X0, b.X0)-b.X0, min(in.X1, b.X1)-b.X0
		inZ := k >= in.Z0 && k < in.Z1
		for y := b.Y0; y < b.Y1; y++ {
			row := g.Index(b.X0, y, k)
			rowRuns(b.X1-b.X0, a0, a1, inZ && y >= in.Y0 && y < in.Y1, func(off, n int, accum bool) {
				o := row + off
				kx, ks, kn, kb, kf := op.kRows(o, n, sy, sz)
				pc, ps, pn, pb, pf := pRows(od, o, n, sy, sz)
				var ms, zs []float64
				if md != nil {
					ms = md[o : o+n]
				}
				if accum {
					zs = ad[o : o+n]
				}
				chebyRow7(kx, ks, kn, kb, kf, pc, ps, pn, pb, pf,
					rd[o:o+n], ms, nd[o:o+n:o+n], zs, alpha, beta)
			})
		}
	})
}

package stencil

import (
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/simd"
)

// This file is the one-sweep Chebyshev step of PPCG's inner solve. A step
// needs w = A·sd only to subtract it from the residual, so the matvec is
// folded into the update that consumes it: per cell
//
//	w      = (A·sdOld)               (a register, never stored)
//	rtemp -= w
//	sdNew  = α·sdOld + β·(minv ⊙ rtemp)
//
// over the matrix-powers bounds b, followed by acc += sdNew (the
// polynomial's correction) over the cells of b inside in.
//
// The direction ping-pongs between two fields. The stencil's input is sd
// itself, not a product that could be recomputed, so an in-place update
// would need the OLD values of cells a neighbouring tile, band or worker
// may already have overwritten; with separate input and output fields
// every read is of a field the sweep never writes and every write is
// pointwise, so any tile, band or worker decomposition is hazard-free
// without a window, a lag or an ordering rule. sdOld must be valid one
// cell beyond b; sdNew is written on b only and must not alias sdOld.
//
// Every cell is computed by the expressions of Apply followed by
// kernels.FusedPPCGInner, operand for operand, so rtemp, sdNew and acc
// are bit-identical to the two-sweep form.

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

// rowRuns cuts the n cells of a tile row into its runs outside and inside
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

// ChebyStep runs one Chebyshev step over b in a single sweep (see the
// file comment): rtemp −= A·sdOld, sdNew = α·sdOld + β·(minv ⊙ rtemp),
// then acc += sdNew on the cells of b inside in. nil minv selects the
// identity preconditioner.
func (op *Operator2D) ChebyStep(pool *par.Pool, b, in grid.Bounds, alpha, beta float64, sdOld, rtemp, minv, sdNew, acc *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	od, rd, nd, ad := sdOld.Data, rtemp.Data, sdNew.Data, acc.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pool.ForTiles(par.Box2D(b.X0, b.X1, b.Y0, b.Y1), func(t par.Tile) {
		a0, a1 := max(in.X0, t.X0)-t.X0, min(in.X1, t.X1)-t.X0
		for k := t.Y0; k < t.Y1; k++ {
			row := g.Index(t.X0, k)
			rowRuns(t.X1-t.X0, a0, a1, k >= in.Y0 && k < in.Y1, func(off, n int, accum bool) {
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
		}
	})
}

// ChebyStep is the 3D one-sweep Chebyshev step — see Operator2D.ChebyStep.
func (op *Operator3D) ChebyStep(pool *par.Pool, b, in grid.Bounds3D, alpha, beta float64, sdOld, rtemp, minv, sdNew, acc *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	sy, sz := op.strides()
	od, rd, nd, ad := sdOld.Data, rtemp.Data, sdNew.Data, acc.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pool.ForTiles(box3s(b), func(t par.Tile) {
		a0, a1 := max(in.X0, t.X0)-t.X0, min(in.X1, t.X1)-t.X0
		for k := t.Z0; k < t.Z1; k++ {
			inZ := k >= in.Z0 && k < in.Z1
			for j := t.Y0; j < t.Y1; j++ {
				row := g.Index(t.X0, j, k)
				rowRuns(t.X1-t.X0, a0, a1, inZ && j >= in.Y0 && j < in.Y1, func(off, n int, accum bool) {
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
		}
	})
}

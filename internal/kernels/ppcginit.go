package kernels

import (
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// PPCGInnerInit is the set-up of PPCG's inner Chebyshev solve in one
// pointwise sweep over b: the outer iteration's solution and residual
// update, then the inner solve's three starting vectors,
//
//	[u += α·p;  r −= α·w]        (skipped when p is nil: the pre-loop call)
//	rtemp = r
//	sd    = θ⁻¹·(minv ⊙ r)
//	z     = sd
//
// replacing AxpyAxpy + a whole-field copy + AxpbyPre(0, …) + Copy. b is
// the interior: the depth-d exchange of sd and rtemp that opens the
// inner solve rewrites every halo cell its extended bounds read, so
// nothing outside b needs a value here. Each cell is computed by the
// four sweeps' own expressions, with one difference: sd drops
// AxpbyPre's leading 0·sd term, which for finite sd is ±0 and can change
// the result only where θ⁻¹·(minv ⊙ r) is itself a zero, and then only
// in that zero's sign. nil minv selects the identity preconditioner.
func PPCGInnerInit(pl *par.Pool, b grid.Bounds, alpha float64, p, w, u, r, rtemp *grid.Field2D, thetaInv float64, minv, sd, z *grid.Field2D) {
	ppcgInnerInit(pl, r.Grid.Rows(b), alpha, p.DataOrNil(), w.DataOrNil(), u.DataOrNil(), r.Data, rtemp.Data, thetaInv, minv.DataOrNil(), sd.Data, z.Data)
}

// PPCGInnerInit3D is PPCGInnerInit over a 3D box.
func PPCGInnerInit3D(pl *par.Pool, b grid.Bounds3D, alpha float64, p, w, u, r, rtemp *grid.Field3D, thetaInv float64, minv, sd, z *grid.Field3D) {
	ppcgInnerInit(pl, r.Grid.Rows(b), alpha, p.DataOrNil(), w.DataOrNil(), u.DataOrNil(), r.Data, rtemp.Data, thetaInv, minv.DataOrNil(), sd.Data, z.Data)
}

// ppcgInnerInit runs ppcgInitRow over every row of b; nil pd skips the
// outer update (wd and ud are then not read).
func ppcgInnerInit(pl *par.Pool, b grid.Rows, alpha float64, pd, wd, ud, rd, td []float64, thetaInv float64, md, sdd, zd []float64) {
	if b.Empty() {
		return
	}
	n := b.N()
	pl.For(b.K0, b.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				var ps, ws, us, ms []float64
				if pd != nil {
					ps, ws, us = row(pd, o, n), row(wd, o, n), row(ud, o, n)
				}
				if md != nil {
					ms = row(md, o, n)
				}
				ppcgInitRow(ps, ws, us, row(rd, o, n), row(td, o, n), ms, row(sdd, o, n), row(zd, o, n), alpha, thetaInv)
			}
		}
	})
}

// ppcgInitRow runs the set-up over one row. nil ps skips the outer
// update; nil ms is the identity. The update is AxpyAxpy's, coefficient
// for coefficient (r += (−α)·w), on the row the set-up then reads from L1.
func ppcgInitRow(ps, ws, us, rs, ts, ms, ss, zs []float64, alpha, thetaInv float64) {
	n := len(rs)
	ts, ss, zs = ts[:n], ss[:n], zs[:n]
	if ps != nil {
		ps, ws, us = ps[:n], ws[:n], us[:n]
		a2 := -alpha
		for i := range rs {
			us[i] += alpha * ps[i]
			rs[i] += a2 * ws[i]
		}
	}
	if ms == nil {
		for i, v := range rs {
			ts[i] = v
			s := thetaInv * v
			ss[i] = s
			zs[i] = s
		}
		return
	}
	ms = ms[:n]
	for i, v := range rs {
		ts[i] = v
		s := thetaInv * (ms[i] * v)
		ss[i] = s
		zs[i] = s
	}
}

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
	if b.Empty() {
		return
	}
	g := r.Grid
	rd, td, sdd, zd := r.Data, rtemp.Data, sd.Data, z.Data
	var pd, wd, ud, md []float64
	if p != nil {
		pd, wd, ud = p.Data, w.Data, u.Data
	}
	if minv != nil {
		md = minv.Data
	}
	pl.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			var ps, ws, us, ms []float64
			if pd != nil {
				ps, ws, us = row(g, b, pd, k), row(g, b, wd, k), row(g, b, ud, k)
			}
			if md != nil {
				ms = row(g, b, md, k)
			}
			ppcgInitRow(ps, ws, us, row(g, b, rd, k), row(g, b, td, k), ms, row(g, b, sdd, k), row(g, b, zd, k), alpha, thetaInv)
		}
	})
}

// PPCGInnerInit3D is the 3D set-up sweep — see PPCGInnerInit; the two
// share their row leaf.
func PPCGInnerInit3D(pl *par.Pool, b grid.Bounds3D, alpha float64, p, w, u, r, rtemp *grid.Field3D, thetaInv float64, minv, sd, z *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := r.Grid
	rd, td, sdd, zd := r.Data, rtemp.Data, sd.Data, z.Data
	var pd, wd, ud, md []float64
	if p != nil {
		pd, wd, ud = p.Data, w.Data, u.Data
	}
	if minv != nil {
		md = minv.Data
	}
	pl.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				var ps, ws, us, ms []float64
				if pd != nil {
					ps, ws, us = row3(g, b, pd, j, k), row3(g, b, wd, j, k), row3(g, b, ud, j, k)
				}
				if md != nil {
					ms = row3(g, b, md, j, k)
				}
				ppcgInitRow(ps, ws, us, row3(g, b, rd, j, k), row3(g, b, td, j, k), ms, row3(g, b, sdd, j, k), row3(g, b, zd, j, k), alpha, thetaInv)
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

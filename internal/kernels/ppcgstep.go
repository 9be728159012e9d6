package kernels

import (
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// PPCGStep is PPCG's outer CG step and the set-up of its inner Chebyshev
// solve in one pointwise sweep over b. The step is the CG engine's
// (Chronopoulos–Gear) vector phase with an explicit z, then the inner
// solve's starting vectors:
//
//	[p = z + β·p;  u += α·p;  s = w + β·s;  r −= α·s]   (skipped when p is nil)
//	rtemp = r  (written into w)
//	sd    = θ⁻¹·(minv ⊙ r)
//	z     = sd
//
// replacing Xpay + Xpay + AxpyAxpy + a copy + AxpbyPre(0, …) + Copy. b
// is the interior: the depth-d exchange of sd and rtemp that opens the
// inner solve rewrites every halo cell its extended bounds read, so
// nothing outside b needs a value here. Each cell is computed by those
// sweeps' own expressions (r += (−α)·s is AxpyAxpy's), with one
// difference: sd drops AxpbyPre's leading 0·sd term, which for finite sd
// is ±0 and can change the result only where θ⁻¹·(minv ⊙ r) is itself a
// zero, and then only in that zero's sign. nil minv selects the identity
// preconditioner. Per cell the step reads z and w before the set-up
// writes them, so PPCG's inner solve runs rtemp in the engine's w and
// accumulates its correction in the engine's z.
func PPCGStep(pl *par.Pool, b grid.Bounds, beta, alpha float64, p, s, u, z, w, r *grid.Field2D, thetaInv float64, minv, sd *grid.Field2D, pre func(y int)) {
	ppcgStep(pl, r.Grid.Rows(b), beta, alpha, p.DataOrNil(), s.DataOrNil(), u.DataOrNil(), z.Data, w.Data, r.Data, thetaInv, minv.DataOrNil(), sd.Data, grid.RowFunc2D(pre))
}

// PPCGStep3D is PPCGStep over a 3D box, pre called with each row (j, k).
func PPCGStep3D(pl *par.Pool, b grid.Bounds3D, beta, alpha float64, p, s, u, z, w, r *grid.Field3D, thetaInv float64, minv, sd *grid.Field3D, pre func(j, k int)) {
	ppcgStep(pl, r.Grid.Rows(b), beta, alpha, p.DataOrNil(), s.DataOrNil(), u.DataOrNil(), z.Data, w.Data, r.Data, thetaInv, minv.DataOrNil(), sd.Data, pre)
}

// ppcgStep runs ppcgStepRow over every row of b, each after its pre
// callback; nil pd skips the step (svd and ud are then not read). dd is
// the inner direction sd.
func ppcgStep(pl *par.Pool, b grid.Rows, beta, alpha float64, pd, svd, ud, zd, wd, rd []float64, thetaInv float64, md, dd []float64, pre func(j, k int)) {
	if b.Empty() {
		return
	}
	n := b.N()
	pl.For(b.K0, b.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				if pre != nil {
					pre(j, k)
				}
				o := b.Off(j, k)
				var ps, ss, us, ms []float64
				if pd != nil {
					ps, ss, us = row(pd, o, n), row(svd, o, n), row(ud, o, n)
				}
				if md != nil {
					ms = row(md, o, n)
				}
				ppcgStepRow(ps, ss, us, row(zd, o, n), row(wd, o, n), row(rd, o, n), ms, row(dd, o, n), beta, alpha, thetaInv)
			}
		}
	})
}

// ppcgStepRow runs the step and the set-up over one row. nil ps skips
// the step; nil ms is the identity.
func ppcgStepRow(ps, ss, us, zs, ws, rs, ms, sds []float64, beta, alpha, thetaInv float64) {
	n := len(rs)
	zs, ws, sds = zs[:n], ws[:n], sds[:n]
	if ps != nil {
		ps, ss, us = ps[:n], ss[:n], us[:n]
		a2 := -alpha
		for i := range rs {
			p := zs[i] + beta*ps[i]
			ps[i] = p
			us[i] += alpha * p
			s := ws[i] + beta*ss[i]
			ss[i] = s
			rs[i] += a2 * s
		}
	}
	if ms == nil {
		for i, v := range rs {
			ws[i] = v
			s := thetaInv * v
			sds[i] = s
			zs[i] = s
		}
		return
	}
	ms = ms[:n]
	for i, v := range rs {
		ws[i] = v
		s := thetaInv * (ms[i] * v)
		sds[i] = s
		zs[i] = s
	}
}

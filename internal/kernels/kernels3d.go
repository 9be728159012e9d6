package kernels

import (
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// The 3D variants operate on a Bounds3D box of a Field3D — the interior
// for plain solver sweeps, matrix-powers extended bounds for the deep-halo
// inner loops — and parallelise over z-planes. Inner loops use the same
// re-slicing and unrolling scheme as the 2D kernels.

// row3 re-slices columns [b.X0, b.X1) of row (j,k) of d.
func row3(g *grid.Grid3D, b grid.Bounds3D, d []float64, j, k int) []float64 {
	o := g.Index(b.X0, j, k)
	n := b.X1 - b.X0
	return d[o : o+n : o+n]
}

// tileBounds3 converts a scheduler tile back to 3D grid bounds.
func tileBounds3(t par.Tile) grid.Bounds3D {
	return grid.Bounds3D{X0: t.X0, X1: t.X1, Y0: t.Y0, Y1: t.Y1, Z0: t.Z0, Z1: t.Z1}
}

// box3 is the scheduler iteration box for 3D grid bounds.
func box3(b grid.Bounds3D) par.Box { return par.Box3D(b.X0, b.X1, b.Y0, b.Y1, b.Z0, b.Z1) }

// Dot3D returns Σ x·y over b.
func Dot3D(p *par.Pool, b grid.Bounds3D, x, y *grid.Field3D) float64 {
	if b.Empty() {
		return 0
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	return p.ForTilesReduceN(1, box3(b), func(t par.Tile, acc []float64) {
		tb := tileBounds3(t)
		n := tb.X1 - tb.X0
		var s0, s1, s2, s3 float64
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				xs := row3(g, tb, xd, j, k)
				ys := row3(g, tb, yd, j, k)
				i := 0
				for ; i+3 < n; i += 4 {
					s0 += xs[i] * ys[i]
					s1 += xs[i+1] * ys[i+1]
					s2 += xs[i+2] * ys[i+2]
					s3 += xs[i+3] * ys[i+3]
				}
				for ; i < n; i++ {
					s0 += xs[i] * ys[i]
				}
			}
		}
		acc[0] += (s0 + s1) + (s2 + s3)
	})[0]
}

// Dot23D computes the pair (x·y, y·z) over b in one sweep and one
// traversal of y — the 3D variant of Dot2, used for the fused (r·z, r·r)
// pair of each PCG iteration.
func Dot23D(p *par.Pool, b grid.Bounds3D, x, y, z *grid.Field3D) (xy, yz float64) {
	if b.Empty() {
		return 0, 0
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	acc := p.ForTilesReduceN(2, box3(b), func(t par.Tile, acc []float64) {
		tb := tileBounds3(t)
		n := tb.X1 - tb.X0
		var a0, a1, c0, c1 float64
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				xs := row3(g, tb, xd, j, k)
				ys := row3(g, tb, yd, j, k)
				zs := row3(g, tb, zd, j, k)
				i := 0
				for ; i+1 < n; i += 2 {
					a0 += xs[i] * ys[i]
					c0 += ys[i] * zs[i]
					a1 += xs[i+1] * ys[i+1]
					c1 += ys[i+1] * zs[i+1]
				}
				for ; i < n; i++ {
					a0 += xs[i] * ys[i]
					c0 += ys[i] * zs[i]
				}
			}
		}
		acc[0] += a0 + a1
		acc[1] += c0 + c1
	})
	return acc[0], acc[1]
}

// Axpy3D computes y += alpha*x over b.
func Axpy3D(p *par.Pool, b grid.Bounds3D, alpha float64, x, y *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	n := b.X1 - b.X0
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				xs := row3(g, b, xd, j, k)
				ys := row3(g, b, yd, j, k)
				i := 0
				for ; i+3 < n; i += 4 {
					ys[i] += alpha * xs[i]
					ys[i+1] += alpha * xs[i+1]
					ys[i+2] += alpha * xs[i+2]
					ys[i+3] += alpha * xs[i+3]
				}
				for ; i < n; i++ {
					ys[i] += alpha * xs[i]
				}
			}
		}
	})
}

// Xpay3D computes y = x + beta*y over b.
func Xpay3D(p *par.Pool, b grid.Bounds3D, x *grid.Field3D, beta float64, y *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	n := b.X1 - b.X0
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				xs := row3(g, b, xd, j, k)
				ys := row3(g, b, yd, j, k)
				i := 0
				for ; i+3 < n; i += 4 {
					ys[i] = xs[i] + beta*ys[i]
					ys[i+1] = xs[i+1] + beta*ys[i+1]
					ys[i+2] = xs[i+2] + beta*ys[i+2]
					ys[i+3] = xs[i+3] + beta*ys[i+3]
				}
				for ; i < n; i++ {
					ys[i] = xs[i] + beta*ys[i]
				}
			}
		}
	})
}

// Copy3D copies src into dst over b.
func Copy3D(p *par.Pool, b grid.Bounds3D, dst, src *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := src.Grid
	sd, dd := src.Data, dst.Data
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				copy(row3(g, b, dd, j, k), row3(g, b, sd, j, k))
			}
		}
	})
}

// ScaleTo3D computes dst = alpha*src over b.
func ScaleTo3D(p *par.Pool, b grid.Bounds3D, alpha float64, src, dst *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := src.Grid
	sd, dd := src.Data, dst.Data
	n := b.X1 - b.X0
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				ss := row3(g, b, sd, j, k)
				ds := row3(g, b, dd, j, k)
				for i := 0; i < n; i++ {
					ds[i] = alpha * ss[i]
				}
			}
		}
	})
}

// AxpyAxpy3D fuses two independent AXPYs into one sweep over b:
// y1 += a1*x1 and y2 += a2*x2 — the fused u/r update of the 3D Chebyshev
// and PPCG outer loops.
func AxpyAxpy3D(p *par.Pool, b grid.Bounds3D, a1 float64, x1, y1 *grid.Field3D, a2 float64, x2, y2 *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := x1.Grid
	x1d, y1d, x2d, y2d := x1.Data, y1.Data, x2.Data, y2.Data
	n := b.X1 - b.X0
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				x1s := row3(g, b, x1d, j, k)
				y1s := row3(g, b, y1d, j, k)
				x2s := row3(g, b, x2d, j, k)
				y2s := row3(g, b, y2d, j, k)
				i := 0
				for ; i+1 < n; i += 2 {
					y1s[i] += a1 * x1s[i]
					y2s[i] += a2 * x2s[i]
					y1s[i+1] += a1 * x1s[i+1]
					y2s[i+1] += a2 * x2s[i+1]
				}
				for ; i < n; i++ {
					y1s[i] += a1 * x1s[i]
					y2s[i] += a2 * x2s[i]
				}
			}
		}
	})
}

// AxpbyPre3D fuses the diagonal preconditioner into the Chebyshev
// direction update over b: y = a*y + beta*(minv ⊙ r), nil minv selecting
// the identity — the 3D variant of AxpbyPre.
func AxpbyPre3D(p *par.Pool, b grid.Bounds3D, a float64, y *grid.Field3D, beta float64, minv, r *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := y.Grid
	yd, rd := y.Data, r.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	n := b.X1 - b.X0
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				ys := row3(g, b, yd, j, k)
				rs := row3(g, b, rd, j, k)
				if md == nil {
					for i := 0; i < n; i++ {
						ys[i] = a*ys[i] + beta*rs[i]
					}
					continue
				}
				ms := row3(g, b, md, j, k)
				for i := 0; i < n; i++ {
					ys[i] = a*ys[i] + beta*(ms[i]*rs[i])
				}
			}
		}
	})
}

// FusedCGDirections3D is the 3D two-sweep direction half:
// p = (minv ⊙ r) + β·p and s = w + β·s in one sweep over b, with nil
// minv selecting the identity — mirrors FusedCGDirections, and like it
// is kept as the oracle of (and bench replay beside) FusedCGStep3D.
func FusedCGDirections3D(pl *par.Pool, b grid.Bounds3D, minv, r, w *grid.Field3D, beta float64, p, s *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := r.Grid
	rd, wd, pd, sd := r.Data, w.Data, p.Data, s.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pl.ForTiles(box3(b), func(t par.Tile) {
		tb := tileBounds3(t)
		n := tb.X1 - tb.X0
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				rs := row3(g, tb, rd, j, k)
				ps := row3(g, tb, pd, j, k)
				if md == nil {
					i := 0
					for ; i+3 < n; i += 4 {
						ps[i] = rs[i] + beta*ps[i]
						ps[i+1] = rs[i+1] + beta*ps[i+1]
						ps[i+2] = rs[i+2] + beta*ps[i+2]
						ps[i+3] = rs[i+3] + beta*ps[i+3]
					}
					for ; i < n; i++ {
						ps[i] = rs[i] + beta*ps[i]
					}
				} else {
					ms := row3(g, tb, md, j, k)
					i := 0
					for ; i+3 < n; i += 4 {
						ps[i] = ms[i]*rs[i] + beta*ps[i]
						ps[i+1] = ms[i+1]*rs[i+1] + beta*ps[i+1]
						ps[i+2] = ms[i+2]*rs[i+2] + beta*ps[i+2]
						ps[i+3] = ms[i+3]*rs[i+3] + beta*ps[i+3]
					}
					for ; i < n; i++ {
						ps[i] = ms[i]*rs[i] + beta*ps[i]
					}
				}
				ws := row3(g, tb, wd, j, k)
				ss := row3(g, tb, sd, j, k)
				i := 0
				for ; i+3 < n; i += 4 {
					ss[i] = ws[i] + beta*ss[i]
					ss[i+1] = ws[i+1] + beta*ss[i+1]
					ss[i+2] = ws[i+2] + beta*ss[i+2]
					ss[i+3] = ws[i+3] + beta*ss[i+3]
				}
				for ; i < n; i++ {
					ss[i] = ws[i] + beta*ss[i]
				}
			}
		}
	})
}

// FusedCGUpdate3D is the 3D two-sweep update half: x += α·p, r −= α·s,
// γ = Σ r·(minv ⊙ r), rr = Σ r·r in one sweep over b. nil minv selects
// the identity, for which γ == rr.
func FusedCGUpdate3D(pl *par.Pool, b grid.Bounds3D, alpha float64, p, s, x, r, minv *grid.Field3D) (gamma, rr float64) {
	if b.Empty() {
		return 0, 0
	}
	g := r.Grid
	pd, sd, xd, rd := p.Data, s.Data, x.Data, r.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	acc := pl.ForTilesReduceN(2, box3(b), func(t par.Tile, acc []float64) {
		tb := tileBounds3(t)
		n := tb.X1 - tb.X0
		var g0, g1, rr0, rr1 float64
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				ps := row3(g, tb, pd, j, k)
				xs := row3(g, tb, xd, j, k)
				i := 0
				for ; i+3 < n; i += 4 {
					xs[i] += alpha * ps[i]
					xs[i+1] += alpha * ps[i+1]
					xs[i+2] += alpha * ps[i+2]
					xs[i+3] += alpha * ps[i+3]
				}
				for ; i < n; i++ {
					xs[i] += alpha * ps[i]
				}
				ss := row3(g, tb, sd, j, k)
				rs := row3(g, tb, rd, j, k)
				if md == nil {
					i = 0
					for ; i+1 < n; i += 2 {
						v0 := rs[i] - alpha*ss[i]
						rs[i] = v0
						rr0 += v0 * v0
						v1 := rs[i+1] - alpha*ss[i+1]
						rs[i+1] = v1
						rr1 += v1 * v1
					}
					for ; i < n; i++ {
						v := rs[i] - alpha*ss[i]
						rs[i] = v
						rr0 += v * v
					}
					continue
				}
				ms := row3(g, tb, md, j, k)
				i = 0
				for ; i+1 < n; i += 2 {
					v0 := rs[i] - alpha*ss[i]
					rs[i] = v0
					g0 += ms[i] * v0 * v0
					rr0 += v0 * v0
					v1 := rs[i+1] - alpha*ss[i+1]
					rs[i+1] = v1
					g1 += ms[i+1] * v1 * v1
					rr1 += v1 * v1
				}
				for ; i < n; i++ {
					v := rs[i] - alpha*ss[i]
					rs[i] = v
					g0 += ms[i] * v * v
					rr0 += v * v
				}
			}
		}
		if md == nil {
			acc[0] += rr0 + rr1
			acc[1] += rr0 + rr1
		} else {
			acc[0] += g0 + g1
			acc[1] += rr0 + rr1
		}
	})
	return acc[0], acc[1]
}

// FusedPPCGInner3D is the fused Chebyshev inner step of 3D PPCG:
//
//	rtemp −= w
//	sd     = α·sd + β·(minv ⊙ rtemp)     over b (matrix-powers bounds)
//	z     += sd                           over in (the interior) only
//
// b must contain in; cells outside in update rtemp/sd but not z, exactly
// as the matrix-powers schedule requires on extended bounds. nil minv
// selects the identity preconditioner.
func FusedPPCGInner3D(pl *par.Pool, b, in grid.Bounds3D, alpha, beta float64, w, rtemp, minv, sd, z *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := rtemp.Grid
	wd, rd, sdd, zd := w.Data, rtemp.Data, sd.Data, z.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pl.ForTiles(box3(b), func(t par.Tile) {
		tb := tileBounds3(t)
		n := tb.X1 - tb.X0
		// Column range of the interior within this tile's row slices.
		xlo, xhi := max(in.X0, tb.X0), min(in.X1, tb.X1)
		zb := in
		zb.X0, zb.X1 = xlo, xhi
		for k := tb.Z0; k < tb.Z1; k++ {
			inZ := k >= in.Z0 && k < in.Z1
			for j := tb.Y0; j < tb.Y1; j++ {
				ws := row3(g, tb, wd, j, k)
				rs := row3(g, tb, rd, j, k)
				ss := row3(g, tb, sdd, j, k)
				if md == nil {
					for i := 0; i < n; i++ {
						v := rs[i] - ws[i]
						rs[i] = v
						ss[i] = alpha*ss[i] + beta*v
					}
				} else {
					ms := row3(g, tb, md, j, k)
					for i := 0; i < n; i++ {
						v := rs[i] - ws[i]
						rs[i] = v
						ss[i] = alpha*ss[i] + beta*(ms[i]*v)
					}
				}
				if inZ && j >= in.Y0 && j < in.Y1 && xhi > xlo {
					zs := row3(g, zb, zd, j, k)
					sz := ss[xlo-tb.X0 : xhi-tb.X0]
					i := 0
					for ; i+1 < len(sz); i += 2 {
						zs[i] += sz[i]
						zs[i+1] += sz[i+1]
					}
					for ; i < len(sz); i++ {
						zs[i] += sz[i]
					}
				}
			}
		}
	})
}

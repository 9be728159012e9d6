package kernels

import (
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// The kernels as they were before the row walker: one 2D body and one 3D
// body each, the 2D ones walking rows of a Bounds, the 3D ones rows of a
// Bounds3D. Their band split is the walker's: ForReduceN or For over y
// in 2D and over z in 3D. oracle_test.go holds every unified kernel to
// these bodies bit for bit, through both adapters.

// oracleRow re-slices columns [b.X0, b.X1) of row k of d.
func oracleRow(g *grid.Grid2D, b grid.Bounds, d []float64, k int) []float64 {
	o := g.Index(b.X0, k)
	return d[o : o+b.X1-b.X0 : o+b.X1-b.X0]
}

// oracleRow3 re-slices columns [b.X0, b.X1) of row (j,k) of d.
func oracleRow3(g *grid.Grid3D, b grid.Bounds3D, d []float64, j, k int) []float64 {
	o := g.Index(b.X0, j, k)
	n := b.X1 - b.X0
	return d[o : o+n : o+n]
}

func oracleDot(p *par.Pool, b grid.Bounds, x, y *grid.Field2D) float64 {
	if b.Empty() {
		return 0
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	return p.ForReduceN(1, b.Y0, b.Y1, func(y0, y1 int, acc []float64) {
		tb := b
		tb.Y0, tb.Y1 = y0, y1
		n := tb.X1 - tb.X0
		var s0, s1, s2, s3 float64
		for k := tb.Y0; k < tb.Y1; k++ {
			xs := oracleRow(g, tb, xd, k)
			ys := oracleRow(g, tb, yd, k)
			j := 0
			for ; j+3 < n; j += 4 {
				s0 += xs[j] * ys[j]
				s1 += xs[j+1] * ys[j+1]
				s2 += xs[j+2] * ys[j+2]
				s3 += xs[j+3] * ys[j+3]
			}
			for ; j < n; j++ {
				s0 += xs[j] * ys[j]
			}
		}
		acc[0] += (s0 + s1) + (s2 + s3)
	})[0]
}

func oracleAxpy(p *par.Pool, b grid.Bounds, alpha float64, x, y *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			xs := oracleRow(g, b, xd, k)
			ys := oracleRow(g, b, yd, k)
			j := 0
			for ; j+3 < n; j += 4 {
				ys[j] += alpha * xs[j]
				ys[j+1] += alpha * xs[j+1]
				ys[j+2] += alpha * xs[j+2]
				ys[j+3] += alpha * xs[j+3]
			}
			for ; j < n; j++ {
				ys[j] += alpha * xs[j]
			}
		}
	})
}

func oracleXpay(p *par.Pool, b grid.Bounds, x *grid.Field2D, beta float64, y *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			xs := oracleRow(g, b, xd, k)
			ys := oracleRow(g, b, yd, k)
			j := 0
			for ; j+3 < n; j += 4 {
				ys[j] = xs[j] + beta*ys[j]
				ys[j+1] = xs[j+1] + beta*ys[j+1]
				ys[j+2] = xs[j+2] + beta*ys[j+2]
				ys[j+3] = xs[j+3] + beta*ys[j+3]
			}
			for ; j < n; j++ {
				ys[j] = xs[j] + beta*ys[j]
			}
		}
	})
}

func oracleCopy(p *par.Pool, b grid.Bounds, dst, src *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := src.Grid
	sd, dd := src.Data, dst.Data
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			lo := g.Index(b.X0, k)
			hi := g.Index(b.X1, k)
			copy(dd[lo:hi], sd[lo:hi])
		}
	})
}

func oracleScaleTo(p *par.Pool, b grid.Bounds, alpha float64, src, dst *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := src.Grid
	sd, dd := src.Data, dst.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			ss := oracleRow(g, b, sd, k)
			ds := oracleRow(g, b, dd, k)
			j := 0
			for ; j+3 < n; j += 4 {
				ds[j] = alpha * ss[j]
				ds[j+1] = alpha * ss[j+1]
				ds[j+2] = alpha * ss[j+2]
				ds[j+3] = alpha * ss[j+3]
			}
			for ; j < n; j++ {
				ds[j] = alpha * ss[j]
			}
		}
	})
}

func oracleDot2(p *par.Pool, b grid.Bounds, x, y, z *grid.Field2D) (xy, yz float64) {
	if b.Empty() {
		return 0, 0
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	acc := p.ForReduceN(2, b.Y0, b.Y1, func(y0, y1 int, acc []float64) {
		tb := b
		tb.Y0, tb.Y1 = y0, y1
		n := tb.X1 - tb.X0
		var a0, a1, c0, c1 float64
		for k := tb.Y0; k < tb.Y1; k++ {
			xs := oracleRow(g, tb, xd, k)
			ys := oracleRow(g, tb, yd, k)
			zs := oracleRow(g, tb, zd, k)
			j := 0
			for ; j+1 < n; j += 2 {
				a0 += xs[j] * ys[j]
				c0 += ys[j] * zs[j]
				a1 += xs[j+1] * ys[j+1]
				c1 += ys[j+1] * zs[j+1]
			}
			for ; j < n; j++ {
				a0 += xs[j] * ys[j]
				c0 += ys[j] * zs[j]
			}
		}
		acc[0] += a0 + a1
		acc[1] += c0 + c1
	})
	return acc[0], acc[1]
}

func oracleAxpyAxpy(p *par.Pool, b grid.Bounds, a1 float64, x1, y1 *grid.Field2D, a2 float64, x2, y2 *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := x1.Grid
	x1d, y1d, x2d, y2d := x1.Data, y1.Data, x2.Data, y2.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			x1s := oracleRow(g, b, x1d, k)
			y1s := oracleRow(g, b, y1d, k)
			x2s := oracleRow(g, b, x2d, k)
			y2s := oracleRow(g, b, y2d, k)
			j := 0
			for ; j+1 < n; j += 2 {
				y1s[j] += a1 * x1s[j]
				y2s[j] += a2 * x2s[j]
				y1s[j+1] += a1 * x1s[j+1]
				y2s[j+1] += a2 * x2s[j+1]
			}
			for ; j < n; j++ {
				y1s[j] += a1 * x1s[j]
				y2s[j] += a2 * x2s[j]
			}
		}
	})
}

func oracleAxpbyPre(p *par.Pool, b grid.Bounds, a float64, y *grid.Field2D, beta float64, minv, r *grid.Field2D) {
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
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			ys := oracleRow(g, b, yd, k)
			rs := oracleRow(g, b, rd, k)
			if md == nil {
				j := 0
				for ; j+1 < n; j += 2 {
					ys[j] = a*ys[j] + beta*rs[j]
					ys[j+1] = a*ys[j+1] + beta*rs[j+1]
				}
				for ; j < n; j++ {
					ys[j] = a*ys[j] + beta*rs[j]
				}
				continue
			}
			ms := oracleRow(g, b, md, k)
			j := 0
			for ; j+1 < n; j += 2 {
				ys[j] = a*ys[j] + beta*(ms[j]*rs[j])
				ys[j+1] = a*ys[j+1] + beta*(ms[j+1]*rs[j+1])
			}
			for ; j < n; j++ {
				ys[j] = a*ys[j] + beta*(ms[j]*rs[j])
			}
		}
	})
}

func oracleFusedCGDirections(pl *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D, beta float64, p, s *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := r.Grid
	rd, wd, pd, sd := r.Data, w.Data, p.Data, s.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	// Each row runs as two narrow bursts (p-recurrence, then
	// s-recurrence): a 16 KB row stays cache-resident between bursts, and
	// two-stream bursts sustain measurably higher memory bandwidth than
	// one four-stream loop on wide grids.
	pl.For(b.Y0, b.Y1, func(y0, y1 int) {
		tb := b
		tb.Y0, tb.Y1 = y0, y1
		n := tb.X1 - tb.X0
		for k := tb.Y0; k < tb.Y1; k++ {
			rs := oracleRow(g, tb, rd, k)
			ps := oracleRow(g, tb, pd, k)
			if md == nil {
				j := 0
				for ; j+3 < n; j += 4 {
					ps[j] = rs[j] + beta*ps[j]
					ps[j+1] = rs[j+1] + beta*ps[j+1]
					ps[j+2] = rs[j+2] + beta*ps[j+2]
					ps[j+3] = rs[j+3] + beta*ps[j+3]
				}
				for ; j < n; j++ {
					ps[j] = rs[j] + beta*ps[j]
				}
			} else {
				ms := oracleRow(g, tb, md, k)
				j := 0
				for ; j+3 < n; j += 4 {
					ps[j] = ms[j]*rs[j] + beta*ps[j]
					ps[j+1] = ms[j+1]*rs[j+1] + beta*ps[j+1]
					ps[j+2] = ms[j+2]*rs[j+2] + beta*ps[j+2]
					ps[j+3] = ms[j+3]*rs[j+3] + beta*ps[j+3]
				}
				for ; j < n; j++ {
					ps[j] = ms[j]*rs[j] + beta*ps[j]
				}
			}
			ws := oracleRow(g, tb, wd, k)
			ss := oracleRow(g, tb, sd, k)
			j := 0
			for ; j+3 < n; j += 4 {
				ss[j] = ws[j] + beta*ss[j]
				ss[j+1] = ws[j+1] + beta*ss[j+1]
				ss[j+2] = ws[j+2] + beta*ss[j+2]
				ss[j+3] = ws[j+3] + beta*ss[j+3]
			}
			for ; j < n; j++ {
				ss[j] = ws[j] + beta*ss[j]
			}
		}
	})
}

func oracleFusedCGUpdate(pl *par.Pool, b grid.Bounds, alpha float64, p, s, x, r, minv *grid.Field2D) (gamma, rr float64) {
	if b.Empty() {
		return 0, 0
	}
	g := r.Grid
	pd, sd, xd, rd := p.Data, s.Data, x.Data, r.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	// Row-fissioned like FusedCGDirections: the x-update burst, then the
	// r-update burst carrying both dot products (the freshly written r row
	// is still in cache for the γ accumulation).
	acc := pl.ForReduceN(2, b.Y0, b.Y1, func(y0, y1 int, acc []float64) {
		tb := b
		tb.Y0, tb.Y1 = y0, y1
		n := tb.X1 - tb.X0
		var g0, g1, rr0, rr1 float64
		for k := tb.Y0; k < tb.Y1; k++ {
			ps := oracleRow(g, tb, pd, k)
			xs := oracleRow(g, tb, xd, k)
			j := 0
			for ; j+3 < n; j += 4 {
				xs[j] += alpha * ps[j]
				xs[j+1] += alpha * ps[j+1]
				xs[j+2] += alpha * ps[j+2]
				xs[j+3] += alpha * ps[j+3]
			}
			for ; j < n; j++ {
				xs[j] += alpha * ps[j]
			}
			ss := oracleRow(g, tb, sd, k)
			rs := oracleRow(g, tb, rd, k)
			if md == nil {
				j = 0
				for ; j+1 < n; j += 2 {
					v0 := rs[j] - alpha*ss[j]
					rs[j] = v0
					rr0 += v0 * v0
					v1 := rs[j+1] - alpha*ss[j+1]
					rs[j+1] = v1
					rr1 += v1 * v1
				}
				for ; j < n; j++ {
					v := rs[j] - alpha*ss[j]
					rs[j] = v
					rr0 += v * v
				}
				continue
			}
			ms := oracleRow(g, tb, md, k)
			j = 0
			for ; j+1 < n; j += 2 {
				v0 := rs[j] - alpha*ss[j]
				rs[j] = v0
				g0 += ms[j] * v0 * v0
				rr0 += v0 * v0
				v1 := rs[j+1] - alpha*ss[j+1]
				rs[j+1] = v1
				g1 += ms[j+1] * v1 * v1
				rr1 += v1 * v1
			}
			for ; j < n; j++ {
				v := rs[j] - alpha*ss[j]
				rs[j] = v
				g0 += ms[j] * v * v
				rr0 += v * v
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

func oracleFusedPPCGInner(pl *par.Pool, b, in grid.Bounds, alpha, beta float64, w, rtemp, minv, sd, z *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := rtemp.Grid
	wd, rd, sdd, zd := w.Data, rtemp.Data, sd.Data, z.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pl.For(b.Y0, b.Y1, func(y0, y1 int) {
		tb := b
		tb.Y0, tb.Y1 = y0, y1
		n := tb.X1 - tb.X0
		// Column range of the interior within this band's row slices (a
		// band may lie wholly outside the interior columns).
		xlo, xhi := max(in.X0, tb.X0), min(in.X1, tb.X1)
		zb := grid.Bounds{X0: xlo, X1: xhi, Y0: in.Y0, Y1: in.Y1}
		for k := tb.Y0; k < tb.Y1; k++ {
			ws := oracleRow(g, tb, wd, k)
			rs := oracleRow(g, tb, rd, k)
			ss := oracleRow(g, tb, sdd, k)
			if md == nil {
				for j := 0; j < n; j++ {
					v := rs[j] - ws[j]
					rs[j] = v
					ss[j] = alpha*ss[j] + beta*v
				}
			} else {
				ms := oracleRow(g, tb, md, k)
				for j := 0; j < n; j++ {
					v := rs[j] - ws[j]
					rs[j] = v
					ss[j] = alpha*ss[j] + beta*(ms[j]*v)
				}
			}
			if k >= in.Y0 && k < in.Y1 && xhi > xlo {
				zs := oracleRow(g, zb, zd, k)
				sz := ss[xlo-tb.X0 : xhi-tb.X0]
				j := 0
				for ; j+1 < len(sz); j += 2 {
					zs[j] += sz[j]
					zs[j+1] += sz[j+1]
				}
				for ; j < len(sz); j++ {
					zs[j] += sz[j]
				}
			}
		}
	})
}

func oracleDot3D(p *par.Pool, b grid.Bounds3D, x, y *grid.Field3D) float64 {
	if b.Empty() {
		return 0
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	return p.ForReduceN(1, b.Z0, b.Z1, func(z0, z1 int, acc []float64) {
		tb := b
		tb.Z0, tb.Z1 = z0, z1
		n := tb.X1 - tb.X0
		var s0, s1, s2, s3 float64
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				xs := oracleRow3(g, tb, xd, j, k)
				ys := oracleRow3(g, tb, yd, j, k)
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

func oracleDot23D(p *par.Pool, b grid.Bounds3D, x, y, z *grid.Field3D) (xy, yz float64) {
	if b.Empty() {
		return 0, 0
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	acc := p.ForReduceN(2, b.Z0, b.Z1, func(z0, z1 int, acc []float64) {
		tb := b
		tb.Z0, tb.Z1 = z0, z1
		n := tb.X1 - tb.X0
		var a0, a1, c0, c1 float64
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				xs := oracleRow3(g, tb, xd, j, k)
				ys := oracleRow3(g, tb, yd, j, k)
				zs := oracleRow3(g, tb, zd, j, k)
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

func oracleAxpy3D(p *par.Pool, b grid.Bounds3D, alpha float64, x, y *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	n := b.X1 - b.X0
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				xs := oracleRow3(g, b, xd, j, k)
				ys := oracleRow3(g, b, yd, j, k)
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

func oracleXpay3D(p *par.Pool, b grid.Bounds3D, x *grid.Field3D, beta float64, y *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	n := b.X1 - b.X0
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				xs := oracleRow3(g, b, xd, j, k)
				ys := oracleRow3(g, b, yd, j, k)
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

func oracleCopy3D(p *par.Pool, b grid.Bounds3D, dst, src *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := src.Grid
	sd, dd := src.Data, dst.Data
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				copy(oracleRow3(g, b, dd, j, k), oracleRow3(g, b, sd, j, k))
			}
		}
	})
}

func oracleScaleTo3D(p *par.Pool, b grid.Bounds3D, alpha float64, src, dst *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := src.Grid
	sd, dd := src.Data, dst.Data
	n := b.X1 - b.X0
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				ss := oracleRow3(g, b, sd, j, k)
				ds := oracleRow3(g, b, dd, j, k)
				for i := 0; i < n; i++ {
					ds[i] = alpha * ss[i]
				}
			}
		}
	})
}

func oracleAxpyAxpy3D(p *par.Pool, b grid.Bounds3D, a1 float64, x1, y1 *grid.Field3D, a2 float64, x2, y2 *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := x1.Grid
	x1d, y1d, x2d, y2d := x1.Data, y1.Data, x2.Data, y2.Data
	n := b.X1 - b.X0
	p.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				x1s := oracleRow3(g, b, x1d, j, k)
				y1s := oracleRow3(g, b, y1d, j, k)
				x2s := oracleRow3(g, b, x2d, j, k)
				y2s := oracleRow3(g, b, y2d, j, k)
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

func oracleAxpbyPre3D(p *par.Pool, b grid.Bounds3D, a float64, y *grid.Field3D, beta float64, minv, r *grid.Field3D) {
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
				ys := oracleRow3(g, b, yd, j, k)
				rs := oracleRow3(g, b, rd, j, k)
				if md == nil {
					for i := 0; i < n; i++ {
						ys[i] = a*ys[i] + beta*rs[i]
					}
					continue
				}
				ms := oracleRow3(g, b, md, j, k)
				for i := 0; i < n; i++ {
					ys[i] = a*ys[i] + beta*(ms[i]*rs[i])
				}
			}
		}
	})
}

func oracleFusedCGDirections3D(pl *par.Pool, b grid.Bounds3D, minv, r, w *grid.Field3D, beta float64, p, s *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := r.Grid
	rd, wd, pd, sd := r.Data, w.Data, p.Data, s.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pl.For(b.Z0, b.Z1, func(z0, z1 int) {
		tb := b
		tb.Z0, tb.Z1 = z0, z1
		n := tb.X1 - tb.X0
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				rs := oracleRow3(g, tb, rd, j, k)
				ps := oracleRow3(g, tb, pd, j, k)
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
					ms := oracleRow3(g, tb, md, j, k)
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
				ws := oracleRow3(g, tb, wd, j, k)
				ss := oracleRow3(g, tb, sd, j, k)
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

func oracleFusedCGUpdate3D(pl *par.Pool, b grid.Bounds3D, alpha float64, p, s, x, r, minv *grid.Field3D) (gamma, rr float64) {
	if b.Empty() {
		return 0, 0
	}
	g := r.Grid
	pd, sd, xd, rd := p.Data, s.Data, x.Data, r.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	acc := pl.ForReduceN(2, b.Z0, b.Z1, func(z0, z1 int, acc []float64) {
		tb := b
		tb.Z0, tb.Z1 = z0, z1
		n := tb.X1 - tb.X0
		var g0, g1, rr0, rr1 float64
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				ps := oracleRow3(g, tb, pd, j, k)
				xs := oracleRow3(g, tb, xd, j, k)
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
				ss := oracleRow3(g, tb, sd, j, k)
				rs := oracleRow3(g, tb, rd, j, k)
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
				ms := oracleRow3(g, tb, md, j, k)
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

func oracleFusedPPCGInner3D(pl *par.Pool, b, in grid.Bounds3D, alpha, beta float64, w, rtemp, minv, sd, z *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := rtemp.Grid
	wd, rd, sdd, zd := w.Data, rtemp.Data, sd.Data, z.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pl.For(b.Z0, b.Z1, func(z0, z1 int) {
		tb := b
		tb.Z0, tb.Z1 = z0, z1
		n := tb.X1 - tb.X0
		// Column range of the interior within this band's row slices.
		xlo, xhi := max(in.X0, tb.X0), min(in.X1, tb.X1)
		zb := in
		zb.X0, zb.X1 = xlo, xhi
		for k := tb.Z0; k < tb.Z1; k++ {
			inZ := k >= in.Z0 && k < in.Z1
			for j := tb.Y0; j < tb.Y1; j++ {
				ws := oracleRow3(g, tb, wd, j, k)
				rs := oracleRow3(g, tb, rd, j, k)
				ss := oracleRow3(g, tb, sdd, j, k)
				if md == nil {
					for i := 0; i < n; i++ {
						v := rs[i] - ws[i]
						rs[i] = v
						ss[i] = alpha*ss[i] + beta*v
					}
				} else {
					ms := oracleRow3(g, tb, md, j, k)
					for i := 0; i < n; i++ {
						v := rs[i] - ws[i]
						rs[i] = v
						ss[i] = alpha*ss[i] + beta*(ms[i]*v)
					}
				}
				if inZ && j >= in.Y0 && j < in.Y1 && xhi > xlo {
					zs := oracleRow3(g, zb, zd, j, k)
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

func oracleFusedCGStep(pl *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D, beta, alpha float64, p, s, x *grid.Field2D) (gamma, rr float64) {
	if b.Empty() {
		return 0, 0
	}
	acc := pl.ForReduceN(2, b.Y0, b.Y1, oracleFusedCGStepBody(b, beta, alpha, minv, r, w, p, s, x))
	return acc[0], acc[1]
}

func oracleFusedCGStepBody(b grid.Bounds, beta, alpha float64, minv, r, w, p, s, x *grid.Field2D) func(y0, y1 int, acc []float64) {
	g := r.Grid
	rd, wd, pd, sd := r.Data, w.Data, p.Data, s.Data
	var md, xd []float64
	if minv != nil {
		md = minv.Data
	}
	if x != nil {
		xd = x.Data
	}
	return func(y0, y1 int, acc []float64) {
		tb := b
		tb.Y0, tb.Y1 = y0, y1
		var l CGStepLanes
		for k := tb.Y0; k < tb.Y1; k++ {
			var ms, xs []float64
			if md != nil {
				ms = oracleRow(g, tb, md, k)
			}
			if xd != nil {
				xs = oracleRow(g, tb, xd, k)
			}
			rs := oracleRow(g, tb, rd, k)
			CGStepPX(ms, rs, oracleRow(g, tb, pd, k), xs, beta, alpha)
			l.CGStepSR(ms, rs, oracleRow(g, tb, wd, k), oracleRow(g, tb, sd, k), beta, alpha)
		}
		l.Fold(md == nil, acc)
	}
}

func oracleFusedCGStep3D(pl *par.Pool, b grid.Bounds3D, minv, r, w *grid.Field3D, beta, alpha float64, p, s, x *grid.Field3D) (gamma, rr float64) {
	if b.Empty() {
		return 0, 0
	}
	acc := pl.ForReduceN(2, b.Z0, b.Z1, oracleFusedCGStepBody3D(b, beta, alpha, minv, r, w, p, s, x))
	return acc[0], acc[1]
}

func oracleFusedCGStepBody3D(b grid.Bounds3D, beta, alpha float64, minv, r, w, p, s, x *grid.Field3D) func(z0, z1 int, acc []float64) {
	g := r.Grid
	rd, wd, pd, sd := r.Data, w.Data, p.Data, s.Data
	var md, xd []float64
	if minv != nil {
		md = minv.Data
	}
	if x != nil {
		xd = x.Data
	}
	return func(z0, z1 int, acc []float64) {
		tb := b
		tb.Z0, tb.Z1 = z0, z1
		var l CGStepLanes
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				var ms, xs []float64
				if md != nil {
					ms = oracleRow3(g, tb, md, j, k)
				}
				if xd != nil {
					xs = oracleRow3(g, tb, xd, j, k)
				}
				rs := oracleRow3(g, tb, rd, j, k)
				CGStepPX(ms, rs, oracleRow3(g, tb, pd, j, k), xs, beta, alpha)
				l.CGStepSR(ms, rs, oracleRow3(g, tb, wd, j, k), oracleRow3(g, tb, sd, j, k), beta, alpha)
			}
		}
		l.Fold(md == nil, acc)
	}
}

func oraclePPCGInnerInit(pl *par.Pool, b grid.Bounds, alpha float64, p, w, u, r, rtemp *grid.Field2D, thetaInv float64, minv, sd, z *grid.Field2D) {
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
				ps, ws, us = oracleRow(g, b, pd, k), oracleRow(g, b, wd, k), oracleRow(g, b, ud, k)
			}
			if md != nil {
				ms = oracleRow(g, b, md, k)
			}
			ppcgInitRow(ps, ws, us, oracleRow(g, b, rd, k), oracleRow(g, b, td, k), ms, oracleRow(g, b, sdd, k), oracleRow(g, b, zd, k), alpha, thetaInv)
		}
	})
}

func oraclePPCGInnerInit3D(pl *par.Pool, b grid.Bounds3D, alpha float64, p, w, u, r, rtemp *grid.Field3D, thetaInv float64, minv, sd, z *grid.Field3D) {
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
					ps, ws, us = oracleRow3(g, b, pd, j, k), oracleRow3(g, b, wd, j, k), oracleRow3(g, b, ud, j, k)
				}
				if md != nil {
					ms = oracleRow3(g, b, md, j, k)
				}
				ppcgInitRow(ps, ws, us, oracleRow3(g, b, rd, j, k), oracleRow3(g, b, td, j, k), ms, oracleRow3(g, b, sdd, j, k), oracleRow3(g, b, zd, j, k), alpha, thetaInv)
			}
		}
	})
}

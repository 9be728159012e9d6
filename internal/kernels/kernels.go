// Package kernels implements the memory-bandwidth-bound vector kernels the
// TeaLeaf solvers are built from: dot products, AXPY-family triads, copies
// and scales, each over an arbitrary Bounds rectangle of a halo-padded
// field. These are the "two loads and one store per (one or two) floating
// point operations" local operations of §III-A of the paper.
//
// All kernels take a *par.Pool and parallelise over grid rows with a
// static block schedule. All fields passed to one call must live on the
// same grid (they do, throughout the solvers: every solver vector is
// allocated on the rank-local grid).
//
// Inner loops are bounds-check-hoisted by re-slicing each row to its
// exact extent (xs := xd[o : o+n : o+n]) and 4-way unrolled with
// independent accumulators, which the gc compiler turns into straight-line
// code with no per-element bounds checks. Reductions keep a fixed
// accumulator association (4 lanes folded pairwise), so results are
// bit-reproducible for a fixed worker count — but differ in the last bits
// from a naive serial sum, which is why tests compare against tolerances.
//
// The Fused* kernels combine the multiple BLAS1 passes of one solver
// iteration into single sweeps, the node-level half of §VII's proposal to
// restructure the Krylov loop around one reduction per iteration; the
// matching stencil-fused sweeps live in package stencil.
package kernels

import (
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// row re-slices one padded row of d to the columns [b.X0, b.X1) of row k.
// The three-index form pins cap so the compiler can drop bounds checks.
func row(g *grid.Grid2D, b grid.Bounds, d []float64, k int) []float64 {
	o := g.Index(b.X0, k)
	return d[o : o+b.X1-b.X0 : o+b.X1-b.X0]
}

// tileBounds converts a scheduler tile back to 2D grid bounds, so tile
// bodies reuse the row helper unchanged.
func tileBounds(t par.Tile) grid.Bounds {
	return grid.Bounds{X0: t.X0, X1: t.X1, Y0: t.Y0, Y1: t.Y1}
}

// box is the scheduler iteration box for 2D grid bounds.
func box(b grid.Bounds) par.Box { return par.Box2D(b.X0, b.X1, b.Y0, b.Y1) }

// Dot returns Σ x·y over the cells of b.
func Dot(p *par.Pool, b grid.Bounds, x, y *grid.Field2D) float64 {
	if b.Empty() {
		return 0
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	return p.ForTilesReduceN(1, box(b), func(t par.Tile, acc []float64) {
		tb := tileBounds(t)
		n := tb.X1 - tb.X0
		var s0, s1, s2, s3 float64
		for k := tb.Y0; k < tb.Y1; k++ {
			xs := row(g, tb, xd, k)
			ys := row(g, tb, yd, k)
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

// Norm2Sq returns Σ x² over the cells of b.
func Norm2Sq(p *par.Pool, b grid.Bounds, x *grid.Field2D) float64 {
	return Dot(p, b, x, x)
}

// Norm2 returns the Euclidean norm of x over b.
func Norm2(p *par.Pool, b grid.Bounds, x *grid.Field2D) float64 {
	return math.Sqrt(Norm2Sq(p, b, x))
}

// Axpy computes y += alpha*x over b.
func Axpy(p *par.Pool, b grid.Bounds, alpha float64, x, y *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			xs := row(g, b, xd, k)
			ys := row(g, b, yd, k)
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

// Xpay computes y = x + beta*y over b (the CG direction update
// p = z + βp).
func Xpay(p *par.Pool, b grid.Bounds, x *grid.Field2D, beta float64, y *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			xs := row(g, b, xd, k)
			ys := row(g, b, yd, k)
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

// Axpby computes z = alpha*x + beta*y over b.
func Axpby(p *par.Pool, b grid.Bounds, alpha float64, x *grid.Field2D, beta float64, y, z *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			xs := row(g, b, xd, k)
			ys := row(g, b, yd, k)
			zs := row(g, b, zd, k)
			j := 0
			for ; j+3 < n; j += 4 {
				zs[j] = alpha*xs[j] + beta*ys[j]
				zs[j+1] = alpha*xs[j+1] + beta*ys[j+1]
				zs[j+2] = alpha*xs[j+2] + beta*ys[j+2]
				zs[j+3] = alpha*xs[j+3] + beta*ys[j+3]
			}
			for ; j < n; j++ {
				zs[j] = alpha*xs[j] + beta*ys[j]
			}
		}
	})
}

// Copy copies src into dst over b.
func Copy(p *par.Pool, b grid.Bounds, dst, src *grid.Field2D) {
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

// ScaleTo computes dst = alpha*src over b.
func ScaleTo(p *par.Pool, b grid.Bounds, alpha float64, src, dst *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := src.Grid
	sd, dd := src.Data, dst.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			ss := row(g, b, sd, k)
			ds := row(g, b, dd, k)
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

// Fill sets x = v over b.
func Fill(p *par.Pool, b grid.Bounds, v float64, x *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd := x.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			xs := row(g, b, xd, k)
			for j := 0; j < n; j++ {
				xs[j] = v
			}
		}
	})
}

// Sub computes z = x - y over b.
func Sub(p *par.Pool, b grid.Bounds, x, y, z *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			xs := row(g, b, xd, k)
			ys := row(g, b, yd, k)
			zs := row(g, b, zd, k)
			j := 0
			for ; j+3 < n; j += 4 {
				zs[j] = xs[j] - ys[j]
				zs[j+1] = xs[j+1] - ys[j+1]
				zs[j+2] = xs[j+2] - ys[j+2]
				zs[j+3] = xs[j+3] - ys[j+3]
			}
			for ; j < n; j++ {
				zs[j] = xs[j] - ys[j]
			}
		}
	})
}

// Mul computes z = x ⊙ y (elementwise) over b; used to apply the diagonal
// (point-Jacobi) preconditioner z = M⁻¹ r when M⁻¹ is stored as a field.
func Mul(p *par.Pool, b grid.Bounds, x, y, z *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			xs := row(g, b, xd, k)
			ys := row(g, b, yd, k)
			zs := row(g, b, zd, k)
			j := 0
			for ; j+3 < n; j += 4 {
				zs[j] = xs[j] * ys[j]
				zs[j+1] = xs[j+1] * ys[j+1]
				zs[j+2] = xs[j+2] * ys[j+2]
				zs[j+3] = xs[j+3] * ys[j+3]
			}
			for ; j < n; j++ {
				zs[j] = xs[j] * ys[j]
			}
		}
	})
}

// Dot2 computes the two dot products x·y and y·z in one pass (the paper's
// §VII proposes restructuring the Krylov solver so multiple dot products
// share a single reduction step).
func Dot2(p *par.Pool, b grid.Bounds, x, y, z *grid.Field2D) (xy, yz float64) {
	if b.Empty() {
		return 0, 0
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	acc := p.ForTilesReduceN(2, box(b), func(t par.Tile, acc []float64) {
		tb := tileBounds(t)
		n := tb.X1 - tb.X0
		var a0, a1, c0, c1 float64
		for k := tb.Y0; k < tb.Y1; k++ {
			xs := row(g, tb, xd, k)
			ys := row(g, tb, yd, k)
			zs := row(g, tb, zd, k)
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

// AxpyAxpy fuses two independent AXPYs into one sweep:
// y1 += a1*x1 and y2 += a2*x2. It is the fused solution/residual update
// u += α·p, r −= α·w shared by the Chebyshev and PPCG outer loops.
func AxpyAxpy(p *par.Pool, b grid.Bounds, a1 float64, x1, y1 *grid.Field2D, a2 float64, x2, y2 *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := x1.Grid
	x1d, y1d, x2d, y2d := x1.Data, y1.Data, x2.Data, y2.Data
	n := b.X1 - b.X0
	p.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			x1s := row(g, b, x1d, k)
			y1s := row(g, b, y1d, k)
			x2s := row(g, b, x2d, k)
			y2s := row(g, b, y2d, k)
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

// AxpbyPre fuses the diagonal preconditioner into the Chebyshev direction
// update: y = a*y + beta*(minv ⊙ r) in one sweep (nil minv → identity).
// This replaces the two-pass z = M⁻¹r; p = α·p + β·z sequence of the
// Chebyshev main loop.
func AxpbyPre(p *par.Pool, b grid.Bounds, a float64, y *grid.Field2D, beta float64, minv, r *grid.Field2D) {
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
			ys := row(g, b, yd, k)
			rs := row(g, b, rd, k)
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
			ms := row(g, b, md, k)
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

// FusedCGDirections is the direction half of the single-reduction
// (Chronopoulos–Gear) CG vector phase as its own sweep,
//
//	p = (minv ⊙ r) + β·p    (= u + β·p, with the preconditioner folded)
//	s = w + β·s             (maintains s = A·p without a second matvec)
//
// with nil minv selecting the identity (u = r). The solver engines run
// the merged FusedCGStep instead; this kernel and FusedCGUpdate stay as
// the two-sweep form the merged step is pinned bitwise against (and the
// bench harness replays).
func FusedCGDirections(pl *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D, beta float64, p, s *grid.Field2D) {
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
	pl.ForTiles(box(b), func(t par.Tile) {
		tb := tileBounds(t)
		n := tb.X1 - tb.X0
		for k := tb.Y0; k < tb.Y1; k++ {
			rs := row(g, tb, rd, k)
			ps := row(g, tb, pd, k)
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
				ms := row(g, tb, md, k)
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
			ws := row(g, tb, wd, k)
			ss := row(g, tb, sd, k)
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

// FusedCGUpdate is the update half of the single-reduction CG vector
// phase as its own sweep: the solution and residual updates fused with
// both dot products the next step scalar needs,
//
//	x += α·p;  r −= α·s;  γ = Σ r·(minv ⊙ r);  rr = Σ r·r
//
// nil minv selects the identity, for which γ == rr. See FusedCGDirections
// for its standing next to FusedCGStep.
func FusedCGUpdate(pl *par.Pool, b grid.Bounds, alpha float64, p, s, x, r, minv *grid.Field2D) (gamma, rr float64) {
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
	acc := pl.ForTilesReduceN(2, box(b), func(t par.Tile, acc []float64) {
		tb := tileBounds(t)
		n := tb.X1 - tb.X0
		var g0, g1, rr0, rr1 float64
		for k := tb.Y0; k < tb.Y1; k++ {
			ps := row(g, tb, pd, k)
			xs := row(g, tb, xd, k)
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
			ss := row(g, tb, sd, k)
			rs := row(g, tb, rd, k)
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
			ms := row(g, tb, md, k)
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

// FusedPPCGInner is the fused Chebyshev inner step of PPCG: the residual
// update, the (folded diagonal) preconditioner application, the
// three-term direction recurrence and the correction accumulation in one
// sweep instead of four,
//
//	rtemp −= w
//	sd     = α·sd + β·(minv ⊙ rtemp)     over b (matrix-powers bounds)
//	z     += sd                           over in (the interior) only
//
// b must contain in; rows outside in update rtemp/sd but not z, exactly
// as the unfused schedule does on extended matrix-powers bounds. nil minv
// selects the identity preconditioner.
//
// The solver engine no longer calls it: stencil.ChebyStep folds the
// matvec that produces w into this sweep. It stays as that step's bitwise
// oracle (with FusedPPCGInner3D) and because bench/ replays it.
func FusedPPCGInner(pl *par.Pool, b, in grid.Bounds, alpha, beta float64, w, rtemp, minv, sd, z *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := rtemp.Grid
	wd, rd, sdd, zd := w.Data, rtemp.Data, sd.Data, z.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pl.ForTiles(box(b), func(t par.Tile) {
		tb := tileBounds(t)
		n := tb.X1 - tb.X0
		// Column range of the interior within this tile's row slices (a
		// tile may lie wholly outside the interior columns).
		xlo, xhi := max(in.X0, tb.X0), min(in.X1, tb.X1)
		zb := grid.Bounds{X0: xlo, X1: xhi, Y0: in.Y0, Y1: in.Y1}
		for k := tb.Y0; k < tb.Y1; k++ {
			ws := row(g, tb, wd, k)
			rs := row(g, tb, rd, k)
			ss := row(g, tb, sdd, k)
			if md == nil {
				for j := 0; j < n; j++ {
					v := rs[j] - ws[j]
					rs[j] = v
					ss[j] = alpha*ss[j] + beta*v
				}
			} else {
				ms := row(g, tb, md, k)
				for j := 0; j < n; j++ {
					v := rs[j] - ws[j]
					rs[j] = v
					ss[j] = alpha*ss[j] + beta*(ms[j]*v)
				}
			}
			if k >= in.Y0 && k < in.Y1 && xhi > xlo {
				zs := row(g, zb, zd, k)
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

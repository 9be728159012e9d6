// Package kernels implements the memory-bandwidth-bound vector kernels the
// TeaLeaf solvers are built from: dot products, AXPY-family triads, copies
// and scales, each over an arbitrary box of a halo-padded field. These are
// the "two loads and one store per (one or two) floating point operations"
// local operations of §III-A of the paper.
//
// Every kernel is written once, as an unexported body over a grid.Rows
// walker: the box as the rows it is stored in. The exported 2D name (over
// a Bounds of Field2Ds) and 3D name (over a Bounds3D of Field3Ds) are
// one-statement adapters that build the walker and hand the body the
// fields' storage. The body gives the walker's outer index to a
// *par.Pool — y in 2D, z in 3D — which splits it into one contiguous
// band per worker (a static block schedule), and walks each band's rows
// k outer, j inner. All fields passed to one call must live on the same
// grid (they do, throughout the solvers: every solver vector is
// allocated on the rank-local grid).
//
// Inner loops are bounds-check-hoisted by re-slicing each row to its
// exact extent (row(d, o, n) = d[o : o+n : o+n]) and 4-way unrolled with
// independent accumulators, which the gc compiler turns into straight-line
// code with no per-element bounds checks. Reductions keep a fixed
// accumulator association (4 lanes folded pairwise, each band's lanes
// folded in band order), so results are bit-reproducible for a fixed
// worker count — but differ in the last bits from a naive serial sum,
// which is why tests compare against tolerances.
//
// The Fused* kernels combine the multiple BLAS1 passes of one solver
// iteration into single sweeps, the node-level half of §VII's proposal to
// restructure the Krylov loop around one reduction per iteration; the
// matching stencil-fused sweeps live in package stencil.
package kernels

import (
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// row re-slices the n cells of d from flat index o. The three-index form
// pins cap so the compiler can drop bounds checks.
func row(d []float64, o, n int) []float64 { return d[o : o+n : o+n] }

// Dot returns Σ x·y over the cells of b.
func Dot(p *par.Pool, b grid.Bounds, x, y *grid.Field2D) float64 {
	return dot(p, x.Grid.Rows(b), x.Data, y.Data)
}

// Dot3D returns Σ x·y over b.
func Dot3D(p *par.Pool, b grid.Bounds3D, x, y *grid.Field3D) float64 {
	return dot(p, x.Grid.Rows(b), x.Data, y.Data)
}

func dot(p *par.Pool, b grid.Rows, xd, yd []float64) float64 {
	if b.Empty() {
		return 0
	}
	n := b.N()
	return p.ForReduceN(1, b.K0, b.K1, func(k0, k1 int, acc []float64) {
		var s0, s1, s2, s3 float64
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				xs, ys := row(xd, o, n), row(yd, o, n)
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

// Dot2 computes the two dot products x·y and y·z in one pass (the paper's
// §VII proposes restructuring the Krylov solver so multiple dot products
// share a single reduction step).
func Dot2(p *par.Pool, b grid.Bounds, x, y, z *grid.Field2D) (xy, yz float64) {
	return dot2(p, x.Grid.Rows(b), x.Data, y.Data, z.Data)
}

// Dot23D is Dot2 over a 3D box.
func Dot23D(p *par.Pool, b grid.Bounds3D, x, y, z *grid.Field3D) (xy, yz float64) {
	return dot2(p, x.Grid.Rows(b), x.Data, y.Data, z.Data)
}

func dot2(p *par.Pool, b grid.Rows, xd, yd, zd []float64) (xy, yz float64) {
	if b.Empty() {
		return 0, 0
	}
	n := b.N()
	acc := p.ForReduceN(2, b.K0, b.K1, func(k0, k1 int, acc []float64) {
		var a0, a1, c0, c1 float64
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				xs, ys, zs := row(xd, o, n), row(yd, o, n), row(zd, o, n)
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

// Axpy computes y += alpha*x over b.
func Axpy(p *par.Pool, b grid.Bounds, alpha float64, x, y *grid.Field2D) {
	axpy(p, x.Grid.Rows(b), alpha, x.Data, y.Data)
}

// Axpy3D computes y += alpha*x over b.
func Axpy3D(p *par.Pool, b grid.Bounds3D, alpha float64, x, y *grid.Field3D) {
	axpy(p, x.Grid.Rows(b), alpha, x.Data, y.Data)
}

func axpy(p *par.Pool, b grid.Rows, alpha float64, xd, yd []float64) {
	if b.Empty() {
		return
	}
	n := b.N()
	p.For(b.K0, b.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				xs, ys := row(xd, o, n), row(yd, o, n)
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

// Xpay computes y = x + beta*y over b (the CG direction update
// p = z + βp).
func Xpay(p *par.Pool, b grid.Bounds, x *grid.Field2D, beta float64, y *grid.Field2D) {
	xpay(p, x.Grid.Rows(b), x.Data, beta, y.Data)
}

// Xpay3D computes y = x + beta*y over b.
func Xpay3D(p *par.Pool, b grid.Bounds3D, x *grid.Field3D, beta float64, y *grid.Field3D) {
	xpay(p, x.Grid.Rows(b), x.Data, beta, y.Data)
}

func xpay(p *par.Pool, b grid.Rows, xd []float64, beta float64, yd []float64) {
	if b.Empty() {
		return
	}
	n := b.N()
	p.For(b.K0, b.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				xs, ys := row(xd, o, n), row(yd, o, n)
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

// Copy copies src into dst over b.
func Copy(p *par.Pool, b grid.Bounds, dst, src *grid.Field2D) {
	copyRows(p, src.Grid.Rows(b), dst.Data, src.Data)
}

// Copy3D copies src into dst over b.
func Copy3D(p *par.Pool, b grid.Bounds3D, dst, src *grid.Field3D) {
	copyRows(p, src.Grid.Rows(b), dst.Data, src.Data)
}

func copyRows(p *par.Pool, b grid.Rows, dd, sd []float64) {
	if b.Empty() {
		return
	}
	n := b.N()
	p.For(b.K0, b.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				copy(row(dd, o, n), row(sd, o, n))
			}
		}
	})
}

// ScaleTo computes dst = alpha*src over b.
func ScaleTo(p *par.Pool, b grid.Bounds, alpha float64, src, dst *grid.Field2D) {
	scaleTo(p, src.Grid.Rows(b), alpha, src.Data, dst.Data)
}

// ScaleTo3D computes dst = alpha*src over b.
func ScaleTo3D(p *par.Pool, b grid.Bounds3D, alpha float64, src, dst *grid.Field3D) {
	scaleTo(p, src.Grid.Rows(b), alpha, src.Data, dst.Data)
}

func scaleTo(p *par.Pool, b grid.Rows, alpha float64, sd, dd []float64) {
	if b.Empty() {
		return
	}
	n := b.N()
	p.For(b.K0, b.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				ss, ds := row(sd, o, n), row(dd, o, n)
				i := 0
				for ; i+3 < n; i += 4 {
					ds[i] = alpha * ss[i]
					ds[i+1] = alpha * ss[i+1]
					ds[i+2] = alpha * ss[i+2]
					ds[i+3] = alpha * ss[i+3]
				}
				for ; i < n; i++ {
					ds[i] = alpha * ss[i]
				}
			}
		}
	})
}

// AxpyAxpy fuses two independent AXPYs into one sweep:
// y1 += a1*x1 and y2 += a2*x2. It is the fused solution/residual update
// u += α·p, r −= α·w shared by the Chebyshev and PPCG outer loops.
func AxpyAxpy(p *par.Pool, b grid.Bounds, a1 float64, x1, y1 *grid.Field2D, a2 float64, x2, y2 *grid.Field2D) {
	axpyAxpy(p, x1.Grid.Rows(b), a1, x1.Data, y1.Data, a2, x2.Data, y2.Data)
}

// AxpyAxpy3D is AxpyAxpy over a 3D box.
func AxpyAxpy3D(p *par.Pool, b grid.Bounds3D, a1 float64, x1, y1 *grid.Field3D, a2 float64, x2, y2 *grid.Field3D) {
	axpyAxpy(p, x1.Grid.Rows(b), a1, x1.Data, y1.Data, a2, x2.Data, y2.Data)
}

func axpyAxpy(p *par.Pool, b grid.Rows, a1 float64, x1d, y1d []float64, a2 float64, x2d, y2d []float64) {
	if b.Empty() {
		return
	}
	n := b.N()
	p.For(b.K0, b.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				x1s, y1s := row(x1d, o, n), row(y1d, o, n)
				x2s, y2s := row(x2d, o, n), row(y2d, o, n)
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

// AxpbyPre fuses the diagonal preconditioner into the Chebyshev direction
// update: y = a*y + beta*(minv ⊙ r) in one sweep (nil minv → identity).
// This replaces the two-pass z = M⁻¹r; p = α·p + β·z sequence of the
// Chebyshev main loop.
func AxpbyPre(p *par.Pool, b grid.Bounds, a float64, y *grid.Field2D, beta float64, minv, r *grid.Field2D) {
	axpbyPre(p, y.Grid.Rows(b), a, y.Data, beta, minv.DataOrNil(), r.Data)
}

// AxpbyPre3D is AxpbyPre over a 3D box.
func AxpbyPre3D(p *par.Pool, b grid.Bounds3D, a float64, y *grid.Field3D, beta float64, minv, r *grid.Field3D) {
	axpbyPre(p, y.Grid.Rows(b), a, y.Data, beta, minv.DataOrNil(), r.Data)
}

func axpbyPre(p *par.Pool, b grid.Rows, a float64, yd []float64, beta float64, md, rd []float64) {
	if b.Empty() {
		return
	}
	n := b.N()
	p.For(b.K0, b.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				ys, rs := row(yd, o, n), row(rd, o, n)
				if md == nil {
					i := 0
					for ; i+1 < n; i += 2 {
						ys[i] = a*ys[i] + beta*rs[i]
						ys[i+1] = a*ys[i+1] + beta*rs[i+1]
					}
					for ; i < n; i++ {
						ys[i] = a*ys[i] + beta*rs[i]
					}
					continue
				}
				ms := row(md, o, n)
				i := 0
				for ; i+1 < n; i += 2 {
					ys[i] = a*ys[i] + beta*(ms[i]*rs[i])
					ys[i+1] = a*ys[i+1] + beta*(ms[i+1]*rs[i+1])
				}
				for ; i < n; i++ {
					ys[i] = a*ys[i] + beta*(ms[i]*rs[i])
				}
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
	fusedCGDirections(pl, r.Grid.Rows(b), minv.DataOrNil(), r.Data, w.Data, beta, p.Data, s.Data)
}

// FusedCGDirections3D is FusedCGDirections over a 3D box.
func FusedCGDirections3D(pl *par.Pool, b grid.Bounds3D, minv, r, w *grid.Field3D, beta float64, p, s *grid.Field3D) {
	fusedCGDirections(pl, r.Grid.Rows(b), minv.DataOrNil(), r.Data, w.Data, beta, p.Data, s.Data)
}

func fusedCGDirections(pl *par.Pool, b grid.Rows, md, rd, wd []float64, beta float64, pd, sd []float64) {
	if b.Empty() {
		return
	}
	n := b.N()
	// Each row runs as two narrow bursts (p-recurrence, then
	// s-recurrence): a 16 KB row stays cache-resident between bursts, and
	// two-stream bursts sustain measurably higher memory bandwidth than
	// one four-stream loop on wide grids.
	pl.For(b.K0, b.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				rs, ps := row(rd, o, n), row(pd, o, n)
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
					ms := row(md, o, n)
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
				ws, ss := row(wd, o, n), row(sd, o, n)
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

// FusedCGUpdate is the update half of the single-reduction CG vector
// phase as its own sweep: the solution and residual updates fused with
// both dot products the next step scalar needs,
//
//	x += α·p;  r −= α·s;  γ = Σ r·(minv ⊙ r);  rr = Σ r·r
//
// nil minv selects the identity, for which γ == rr. See FusedCGDirections
// for its standing next to FusedCGStep.
func FusedCGUpdate(pl *par.Pool, b grid.Bounds, alpha float64, p, s, x, r, minv *grid.Field2D) (gamma, rr float64) {
	return fusedCGUpdate(pl, r.Grid.Rows(b), alpha, p.Data, s.Data, x.Data, r.Data, minv.DataOrNil())
}

// FusedCGUpdate3D is FusedCGUpdate over a 3D box.
func FusedCGUpdate3D(pl *par.Pool, b grid.Bounds3D, alpha float64, p, s, x, r, minv *grid.Field3D) (gamma, rr float64) {
	return fusedCGUpdate(pl, r.Grid.Rows(b), alpha, p.Data, s.Data, x.Data, r.Data, minv.DataOrNil())
}

func fusedCGUpdate(pl *par.Pool, b grid.Rows, alpha float64, pd, sd, xd, rd, md []float64) (gamma, rr float64) {
	if b.Empty() {
		return 0, 0
	}
	n := b.N()
	// Row-fissioned like FusedCGDirections: the x-update burst, then the
	// r-update burst carrying both dot products (the freshly written r row
	// is still in cache for the γ accumulation).
	acc := pl.ForReduceN(2, b.K0, b.K1, func(k0, k1 int, acc []float64) {
		var g0, g1, rr0, rr1 float64
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				ps, xs := row(pd, o, n), row(xd, o, n)
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
				ss, rs := row(sd, o, n), row(rd, o, n)
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
				ms := row(md, o, n)
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
	fusedPPCGInner(pl, rtemp.Grid.Rows(b), rtemp.Grid.Rows(in), alpha, beta, w.Data, rtemp.Data, minv.DataOrNil(), sd.Data, z.Data)
}

// FusedPPCGInner3D is FusedPPCGInner over a 3D box.
func FusedPPCGInner3D(pl *par.Pool, b, in grid.Bounds3D, alpha, beta float64, w, rtemp, minv, sd, z *grid.Field3D) {
	fusedPPCGInner(pl, rtemp.Grid.Rows(b), rtemp.Grid.Rows(in), alpha, beta, w.Data, rtemp.Data, minv.DataOrNil(), sd.Data, z.Data)
}

func fusedPPCGInner(pl *par.Pool, b, in grid.Rows, alpha, beta float64, wd, rd, md, sdd, zd []float64) {
	if b.Empty() {
		return
	}
	n := b.N()
	// Column range of the interior within b's rows (b may lie wholly
	// outside the interior columns).
	xlo, xhi := max(in.X0, b.X0), min(in.X1, b.X1)
	pl.For(b.K0, b.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			inK := k >= in.K0 && k < in.K1
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				ws, rs, ss := row(wd, o, n), row(rd, o, n), row(sdd, o, n)
				if md == nil {
					for i := 0; i < n; i++ {
						v := rs[i] - ws[i]
						rs[i] = v
						ss[i] = alpha*ss[i] + beta*v
					}
				} else {
					ms := row(md, o, n)
					for i := 0; i < n; i++ {
						v := rs[i] - ws[i]
						rs[i] = v
						ss[i] = alpha*ss[i] + beta*(ms[i]*v)
					}
				}
				if inK && j >= in.J0 && j < in.J1 && xhi > xlo {
					zs := row(zd, o+xlo-b.X0, xhi-xlo)
					sz := ss[xlo-b.X0 : xhi-b.X0]
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

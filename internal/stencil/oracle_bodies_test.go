package stencil

import (
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
)

// The stencil sweeps as they were before every sweep became one body over
// grid.Rows: a 2D body walking y-rows and a 3D body walking z-planes of
// y-rows, each handing its rows to the same row leaves. They are the
// oracles oracle_test.go holds the unified sweeps to, bit for bit. Each
// old method keeps its body under an oracle-prefixed name; the window
// buffers are made per band instead of taken from the pool.

func oracleWindow(n int) *[]float64 {
	buf := make([]float64, n)
	return &buf
}

func oraclePutWindow(*[]float64) {}

// oracleStencilRows bundles the re-sliced rows the 5-point kernels read for one
// grid row k over columns [b.X0, b.X1): face coefficients, and the centre
// row of p extended one cell each side (ps[j] = p(X0+j−1), ps[j+1] =
// centre, ps[j+2] = east) plus the north/south rows. The three-index
// re-slices let the compiler hoist every bounds check out of the j loop.
type oracleStencilRows struct {
	kxs      []float64 // kxs[j] = Kx(X0+j), kxs[j+1] = Kx(X0+j+1)
	kyn, kys []float64 // north/south face Ky rows
	pn, pso  []float64 // north/south p rows
	pc       []float64 // centre p row, extended [X0-1, X1+1)
}

func oracleSliceStencilRows(g *grid.Grid2D, b grid.Bounds, kx, ky, p []float64, k int) oracleStencilRows {
	s := g.Stride()
	o := g.Index(b.X0, k)
	n := b.X1 - b.X0
	return oracleStencilRows{
		kxs: kx[o : o+n+1],
		kyn: ky[o+s : o+s+n],
		kys: ky[o : o+n],
		pn:  p[o+s : o+s+n],
		pso: p[o-s : o-s+n],
		pc:  p[o-1 : o+n+1],
	}
}

// oracleApply computes w = A·p over the cells of b. p must have valid values one
// cell beyond b on every side (halo-exchanged, reflected, or inside the
// padded region covered by a deeper exchange).
func (op *Operator2D) oracleApply(pool *par.Pool, b grid.Bounds, p, w *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	pd, wd := p.Data, w.Data
	pool.For(b.Y0, b.Y1, func(k0, k1 int) {
		n := b.X1 - b.X0
		for k := k0; k < k1; k++ {
			o := g.Index(b.X0, k)
			kxs := kx[o : o+n+1]
			kyn := ky[o+s : o+s+n]
			kys := ky[o : o+n]
			pn := pd[o+s : o+s+n]
			pso := pd[o-s : o-s+n]
			pc := pd[o-1 : o+n+1]
			ws := wd[o : o+n : o+n]
			j := 0
			for ; j+3 < n; j += 4 {
				v0 := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc[j+1] -
					(kyn[j]*pn[j] + kys[j]*pso[j]) -
					(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
				v1 := (1+(kyn[j+1]+kys[j+1])+(kxs[j+2]+kxs[j+1]))*pc[j+2] -
					(kyn[j+1]*pn[j+1] + kys[j+1]*pso[j+1]) -
					(kxs[j+2]*pc[j+3] + kxs[j+1]*pc[j+1])
				v2 := (1+(kyn[j+2]+kys[j+2])+(kxs[j+3]+kxs[j+2]))*pc[j+3] -
					(kyn[j+2]*pn[j+2] + kys[j+2]*pso[j+2]) -
					(kxs[j+3]*pc[j+4] + kxs[j+2]*pc[j+2])
				v3 := (1+(kyn[j+3]+kys[j+3])+(kxs[j+4]+kxs[j+3]))*pc[j+4] -
					(kyn[j+3]*pn[j+3] + kys[j+3]*pso[j+3]) -
					(kxs[j+4]*pc[j+5] + kxs[j+3]*pc[j+3])
				ws[j], ws[j+1], ws[j+2], ws[j+3] = v0, v1, v2, v3
			}
			for ; j < n; j++ {
				ws[j] = (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc[j+1] -
					(kyn[j]*pn[j] + kys[j]*pso[j]) -
					(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
			}
		}
	})
}

// oracleApplyDot is Listing 1 exactly: w = A·p fused with the dot product
// pw = p·w in a single pass over b. The inner loop is the hottest in the
// whole solver, so it is written with local re-sliced rows (bounds checks
// hoisted) and 4-way unrolling.
func (op *Operator2D) oracleApplyDot(pool *par.Pool, b grid.Bounds, p, w *grid.Field2D) float64 {
	if b.Empty() {
		return 0
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	pd, wd := p.Data, w.Data
	return pool.ForReduceN(1, b.Y0, b.Y1, oracleApplyDotBody(g, b, s, kx, ky, pd, wd))[0]
}

// oracleApplyDotBody is ApplyDot's band body: one applyDotRow5 leaf per row,
// the band's four p·w lanes folded into acc[0].
func oracleApplyDotBody(g *grid.Grid2D, b grid.Bounds, s int, kx, ky, pd, wd []float64) func(k0, k1 int, acc []float64) {
	return func(k0, k1 int, acc []float64) {
		n := b.X1 - b.X0
		var pw [4]float64
		for k := k0; k < k1; k++ {
			o := g.Index(b.X0, k)
			applyDotRow5(kx[o:o+n+1], ky[o+s:o+s+n], ky[o:o+n],
				pd[o+s:o+s+n], pd[o-s:o-s+n], pd[o-1:o+n+1], wd[o:o+n:o+n], &pw)
		}
		acc[0] += (pw[0] + pw[1]) + (pw[2] + pw[3])
	}
}

// oracleApplyPreDot is the matvec pass of the fused single-reduction CG: with
// u = minv ⊙ r the (folded diagonal-)preconditioned residual, it computes
// w = A·u and returns uw = Σ u·w in one sweep, never materialising u.
// r (and minv) must be valid one cell beyond b on every side. nil minv
// selects the identity (u = r), reducing to ApplyDot.
func (op *Operator2D) oracleApplyPreDot(pool *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D) float64 {
	if minv == nil {
		return op.oracleApplyDot(pool, b, r, w)
	}
	if b.Empty() {
		return 0
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	md, rd, wd := minv.Data, r.Data, w.Data
	// Each worker keeps a rolling three-row window of u = minv ⊙ r
	// (extended one cell left/right), so every product is computed once
	// and m, r stream through exactly one read each — the buffer rows
	// stay L1-resident across the stencil evaluation. Edge rows recomputed
	// by the adjacent band are the same pointwise products, so the sweep's
	// output does not depend on the worker count.
	return pool.ForReduceN(1, b.Y0, b.Y1, oracleApplyPreDotBody2D(g, b, s, kx, ky, md, rd, wd))[0]
}

// oracleApplyPreDotBody2D is ApplyPreDot's band body: a rolling three-row window
// of u = minv ⊙ r feeding one stencil row per grid row.
func oracleApplyPreDotBody2D(g *grid.Grid2D, b grid.Bounds, s int, kx, ky, md, rd, wd []float64) func(k0, k1 int, acc []float64) {
	return func(k0, k1 int, acc []float64) {
		n := b.X1 - b.X0
		width := n + 2
		buf := oracleWindow(3 * width)
		us := (*buf)[0*width : 1*width : 1*width] // row k−1
		uc := (*buf)[1*width : 2*width : 2*width] // row k
		un := (*buf)[2*width : 3*width : 3*width] // row k+1
		fill := func(dst []float64, k int) {
			o := g.Index(b.X0-1, k)
			fillWindowRow(dst, md[o:o+width:o+width], rd[o:][:width:width])
		}
		fill(us, k0-1)
		fill(uc, k0)
		var uw [2]float64
		for k := k0; k < k1; k++ {
			fill(un, k+1)
			o := g.Index(b.X0, k)
			applyPreDotRow5(kx[o:o+n+1], ky[o+s:o+s+n], ky[o:o+n],
				un[1:n+1], us[1:n+1], uc, wd[o:o+n:o+n], &uw)
			us, uc, un = uc, un, us
		}
		acc[0] += uw[0] + uw[1]
		oraclePutWindow(buf)
	}
}

// oracleApplyPreDotInit is ApplyPreDot extended with the two extra dot products
// the fused CG loop needs to start up: it returns (γ, δ, rr) =
// (Σ r·u, Σ u·w, Σ r·r) for u = minv ⊙ r, w = A·u, in one sweep. It runs
// once per solve, so it trades a little per-element work for not needing
// separate Dot passes before the first iteration.
func (op *Operator2D) oracleApplyPreDotInit(pool *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D) (gamma, delta, rr float64) {
	if b.Empty() {
		return 0, 0, 0
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	rd, wd := r.Data, w.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	out := pool.ForReduceN(3, b.Y0, b.Y1, func(k0, k1 int, acc []float64) {
		tb := grid.Bounds{X0: b.X0, X1: b.X1, Y0: k0, Y1: k1}
		n := tb.X1 - tb.X0
		var ga, de, rs float64
		for k := tb.Y0; k < tb.Y1; k++ {
			rrw := oracleSliceStencilRows(g, tb, kx, ky, rd, k)
			o := g.Index(tb.X0, k)
			ws := wd[o : o+n : o+n]
			if md == nil {
				for j := 0; j < n; j++ {
					rc := rrw.pc[j+1]
					v := (1+(rrw.kyn[j]+rrw.kys[j])+(rrw.kxs[j+1]+rrw.kxs[j]))*rc -
						(rrw.kyn[j]*rrw.pn[j] + rrw.kys[j]*rrw.pso[j]) -
						(rrw.kxs[j+1]*rrw.pc[j+2] + rrw.kxs[j]*rrw.pc[j])
					ws[j] = v
					ga += rc * rc
					de += rc * v
					rs += rc * rc
				}
				continue
			}
			mn := md[o+s : o+s+n]
			mso := md[o-s : o-s+n]
			mc := md[o-1 : o+n+1]
			for j := 0; j < n; j++ {
				rc := rrw.pc[j+1]
				uc := mc[j+1] * rc
				v := (1+(rrw.kyn[j]+rrw.kys[j])+(rrw.kxs[j+1]+rrw.kxs[j]))*uc -
					(rrw.kyn[j]*(mn[j]*rrw.pn[j]) + rrw.kys[j]*(mso[j]*rrw.pso[j])) -
					(rrw.kxs[j+1]*(mc[j+2]*rrw.pc[j+2]) + rrw.kxs[j]*(mc[j]*rrw.pc[j]))
				ws[j] = v
				ga += rc * uc
				de += uc * v
				rs += rc * rc
			}
		}
		acc[0] += ga
		acc[1] += de
		acc[2] += rs
	})
	return out[0], out[1], out[2]
}

// oracleResidual computes r = rhs − A·u over b.
func (op *Operator2D) oracleResidual(pool *par.Pool, b grid.Bounds, u, rhs, r *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	ud, bd, rd := u.Data, rhs.Data, r.Data
	pool.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			base := g.Index(0, k)
			for j := b.X0; j < b.X1; j++ {
				i := base + j
				au := (1+(ky[i+s]+ky[i])+(kx[i+1]+kx[i]))*ud[i] -
					(ky[i+s]*ud[i+s] + ky[i]*ud[i-s]) -
					(kx[i+1]*ud[i+1] + kx[i]*ud[i-1])
				rd[i] = bd[i] - au
			}
		}
	})
}

func (op *Operator2D) oracleDiagonal(pool *par.Pool, b grid.Bounds, d *grid.Field2D, inv bool) {
	if b.Empty() {
		return
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	dd := d.Data
	n := b.X1 - b.X0
	pool.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			o := g.Index(b.X0, k)
			ds := dd[o : o+n : o+n]
			kyn, kys := ky[o+s : o+s+n][:len(ds)], ky[o : o+n][:len(ds)]
			kxe, kxw := kx[o+1 : o+n+1][:len(ds)], kx[o : o+n][:len(ds)]
			for i := range ds {
				v := 1 + (kyn[i] + kys[i]) + (kxe[i] + kxw[i])
				if inv {
					v = 1 / v
				}
				ds[i] = v
			}
		}
	})
}

// oracleStrides returns the flat-index distance between y-neighbours and
// between z-neighbours of the padded grid.
func (op *Operator3D) oracleStrides() (sy, sz int) {
	g := op.Grid
	sy = g.NX + 2*g.Halo
	return sy, sy * (g.NY + 2*g.Halo)
}

// oracleKRows returns the face-coefficient rows of the n cells starting at
// flat index o: Kx extended to n+1, south/north Ky, back/front Kz.
func (op *Operator3D) oracleKRows(o, n, sy, sz int) (kx, ks, kn, kb, kf []float64) {
	x, y, z := op.Kx.Data, op.Ky.Data, op.Kz.Data
	return x[o : o+n+1], y[o : o+n], y[o+sy : o+sy+n], z[o : o+n], z[o+sz : o+sz+n]
}

// oraclePRows returns the five rows of p the stencil reads for the n cells
// starting at flat index o: the centre row extended one cell each side,
// then south, north, back, front.
func oraclePRows(p []float64, o, n, sy, sz int) (pc, ps, pn, pb, pf []float64) {
	return p[o-1 : o+n+1], p[o-sy : o-sy+n], p[o+sy : o+sy+n], p[o-sz : o-sz+n], p[o+sz : o+sz+n]
}

// oracleDot2Lanes carries ApplyDot2's two lanes each of p·w and w·w across
// the rows of one band.
type oracleDot2Lanes struct{ pw0, pw1, ww0, ww1 float64 }

// applyDot2Row is the row leaf of ApplyDot2: ws = A·p over one row with
// p·w and w·w accumulated into the band's lanes.
func (l *oracleDot2Lanes) applyDot2Row(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64) {
	n := len(ws)
	kw, ke, pw, pc, pe := xRows(kx, p, n)
	ks, kn, kb, kf = ks[:n], kn[:n], kb[:n], kf[:n]
	ps, pn, pb, pf = ps[:n], pn[:n], pb[:n], pf[:n]
	pw0, pw1, ww0, ww1 := l.pw0, l.pw1, l.ww0, l.ww1
	i := 0
	for ; i+1 < n; i += 2 {
		c0 := pc[i]
		v0 := point7(kw[i], ke[i], ks[i], kn[i], kb[i], kf[i], c0, pw[i], pe[i], ps[i], pn[i], pb[i], pf[i])
		ws[i] = v0
		pw0 += c0 * v0
		ww0 += v0 * v0
		c1 := pc[i+1]
		v1 := point7(kw[i+1], ke[i+1], ks[i+1], kn[i+1], kb[i+1], kf[i+1], c1, pw[i+1], pe[i+1], ps[i+1], pn[i+1], pb[i+1], pf[i+1])
		ws[i+1] = v1
		pw1 += c1 * v1
		ww1 += v1 * v1
	}
	for ; i < n; i++ {
		c := pc[i]
		v := point7(kw[i], ke[i], ks[i], kn[i], kb[i], kf[i], c, pw[i], pe[i], ps[i], pn[i], pb[i], pf[i])
		ws[i] = v
		pw0 += c * v
		ww0 += v * v
	}
	l.pw0, l.pw1, l.ww0, l.ww1 = pw0, pw1, ww0, ww1
}

// oracleApply computes w = A·p over the cells of b. p must have valid values
// one cell beyond b on every side.
func (op *Operator3D) oracleApply(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	sy, sz := op.oracleStrides()
	pd, wd := p.Data, w.Data
	pool.For(b.Z0, b.Z1, func(k0, k1 int) {
		n := b.X1 - b.X0
		for k := k0; k < k1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				o := g.Index(b.X0, j, k)
				kx, ks, kn, kb, kf := op.oracleKRows(o, n, sy, sz)
				pc, ps, pn, pb, pf := oraclePRows(pd, o, n, sy, sz)
				applyRow7(kx, ks, kn, kb, kf, pc, ps, pn, pb, pf, wd[o:o+n:o+n])
			}
		}
	})
}

// oracleApplyDot fuses w = A·p with pw = p·w over b.
func (op *Operator3D) oracleApplyDot(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) float64 {
	if b.Empty() {
		return 0
	}
	g := op.Grid
	sy, sz := op.oracleStrides()
	pd, wd := p.Data, w.Data
	return pool.ForReduceN(1, b.Z0, b.Z1, func(k0, k1 int, acc []float64) {
		n := b.X1 - b.X0
		var dot float64
		for k := k0; k < k1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				o := g.Index(b.X0, j, k)
				kx, ks, kn, kb, kf := op.oracleKRows(o, n, sy, sz)
				pc, ps, pn, pb, pf := oraclePRows(pd, o, n, sy, sz)
				dot = applyDotRow(kx, ks, kn, kb, kf, pc, ps, pn, pb, pf, wd[o:o+n:o+n], dot)
			}
		}
		acc[0] += dot
	})[0]
}

// oracleApplyDot2 computes w = A·p fused with the two dot products p·w and w·w
// over b in one sweep — the 3D variant of Operator2D.ApplyDot2, used by
// the fused single-reduction CG (p·w feeds the Chronopoulos–Gear step
// scalar, w·w is a free breakdown sentinel).
func (op *Operator3D) oracleApplyDot2(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) (pw, ww float64) {
	if b.Empty() {
		return 0, 0
	}
	acc2 := pool.ForReduceN(2, b.Z0, b.Z1, op.oracleApplyDot2Body(b, p.Data, w.Data))
	return acc2[0], acc2[1]
}

// oracleApplyDot2Body is ApplyDot2's band body: one applyDot2Row leaf per row,
// the band's (p·w, w·w) lanes folded into acc.
func (op *Operator3D) oracleApplyDot2Body(b grid.Bounds3D, pd, wd []float64) func(k0, k1 int, acc []float64) {
	g := op.Grid
	sy, sz := op.oracleStrides()
	return func(k0, k1 int, acc []float64) {
		n := b.X1 - b.X0
		var l oracleDot2Lanes
		for k := k0; k < k1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				o := g.Index(b.X0, j, k)
				kx, ks, kn, kb, kf := op.oracleKRows(o, n, sy, sz)
				pc, ps, pn, pb, pf := oraclePRows(pd, o, n, sy, sz)
				l.applyDot2Row(kx, ks, kn, kb, kf, pc, ps, pn, pb, pf, wd[o:o+n:o+n])
			}
		}
		acc[0] += l.pw0 + l.pw1
		acc[1] += l.ww0 + l.ww1
	}
}

// oracleApplyPreDot computes w = A·u with u = minv ⊙ r (the diagonally
// preconditioned residual, evaluated on the fly — u is never
// materialised) fused with δ = u·w over b, the 3D variant of the 2D
// ApplyPreDot. nil minv selects the identity (u = r). minv must be valid
// one cell beyond b on every side, which NewJacobi3D guarantees on the
// padded region minus its outermost layer.
func (op *Operator3D) oracleApplyPreDot(pool *par.Pool, b grid.Bounds3D, minv *grid.Field3D, r, w *grid.Field3D) float64 {
	if minv == nil {
		pw, _ := op.oracleApplyDot2(pool, b, r, w)
		return pw
	}
	if b.Empty() {
		return 0
	}
	return pool.ForReduceN(1, b.Z0, b.Z1, op.oracleApplyPreDotBody(b, minv.Data, r.Data, w.Data, false))[0]
}

// oracleApplyPreDotBody is the band body of ApplyPreDot and, with init set, of
// the preconditioned ApplyPreDotInit — one closure, so the startup and
// in-loop sweeps cannot drift bit-wise. It is the 2D body's design one dimension up: each
// worker keeps a rolling three-plane window of u = minv ⊙ r, the band's
// footprint plus one cell of surround in x and y, so every product is
// computed once and m, r stream through exactly one read each where
// evaluating u at all seven stencil points reads them seven times. A
// plane is filled as the front neighbour of plane k, serves as the
// centre of k+1 and the back neighbour of k+2, and the three buffers
// rotate. The surround's four x/y corner columns are filled but never
// read (the stencil has no diagonal neighbours); planes recomputed by
// the adjacent band are the same pointwise products, so the sweep's
// output does not depend on the worker count. δ = Σ u·w lands in acc[0]
// through one accumulator in cell order; init moves it to acc[1] and
// adds γ = Σ r·u in acc[0] and Σ r·r in acc[2], each likewise.
func (op *Operator3D) oracleApplyPreDotBody(b grid.Bounds3D, md, rd, wd []float64, init bool) func(k0, k1 int, acc []float64) {
	g := op.Grid
	sy, sz := op.oracleStrides()
	return func(k0, k1 int, acc []float64) {
		n, ny := b.X1-b.X0, b.Y1-b.Y0
		width := n + 2
		plane := width * (ny + 2)
		buf := oracleWindow(3 * plane)
		ub := (*buf)[0*plane : 1*plane : 1*plane] // plane k−1
		uc := (*buf)[1*plane : 2*plane : 2*plane] // plane k
		uf := (*buf)[2*plane : 3*plane : 3*plane] // plane k+1
		fill := func(dst []float64, k int) {
			for jw := 0; jw < ny+2; jw++ {
				o := g.Index(b.X0-1, b.Y0-1+jw, k)
				fillWindowRow(dst[jw*width:][:width], md[o:o+width], rd[o:o+width])
			}
		}
		fill(ub, k0-1)
		fill(uc, k0)
		var gamma, delta, rr float64
		for k := k0; k < k1; k++ {
			fill(uf, k+1)
			for j := b.Y0; j < b.Y1; j++ {
				o := g.Index(b.X0, j, k)
				kx, ks, kn, kb, kf := op.oracleKRows(o, n, sy, sz)
				// Cell (X0, j) of a plane is window element wo.
				wo := (j-b.Y0+1)*width + 1
				delta = applyDotRow(kx, ks, kn, kb, kf,
					uc[wo-1:wo+n+1], uc[wo-width:wo-width+n], uc[wo+width:wo+width+n], ub[wo:wo+n], uf[wo:wo+n],
					wd[o:o+n:o+n], delta)
				if init {
					gamma, rr = initDotsRow(rd[o:o+n], uc[wo:], gamma, rr)
				}
			}
			ub, uc, uf = uc, uf, ub
		}
		if init {
			acc[0] += gamma
			acc[1] += delta
			acc[2] += rr
		} else {
			acc[0] += delta
		}
		oraclePutWindow(buf)
	}
}

// oracleApplyPreDotInit is the fused startup sweep of the 3D single-reduction
// CG: w = A·u with u = minv ⊙ r, returning γ = r·u, δ = u·w and rr = r·r
// in one pass. nil minv selects the identity (γ == rr).
func (op *Operator3D) oracleApplyPreDotInit(pool *par.Pool, b grid.Bounds3D, minv *grid.Field3D, r, w *grid.Field3D) (gamma, delta, rr float64) {
	if b.Empty() {
		return 0, 0, 0
	}
	rd, wd := r.Data, w.Data
	if minv != nil {
		acc := pool.ForReduceN(3, b.Z0, b.Z1, op.oracleApplyPreDotBody(b, minv.Data, rd, wd, true))
		return acc[0], acc[1], acc[2]
	}
	g := op.Grid
	sy, sz := op.oracleStrides()
	acc := pool.ForReduceN(2, b.Z0, b.Z1, func(k0, k1 int, out []float64) {
		n := b.X1 - b.X0
		var de, rr2 float64
		for k := k0; k < k1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				o := g.Index(b.X0, j, k)
				kx, ks, kn, kb, kf := op.oracleKRows(o, n, sy, sz)
				pc, ps, pn, pb, pf := oraclePRows(rd, o, n, sy, sz)
				de = applyDotRow(kx, ks, kn, kb, kf, pc, ps, pn, pb, pf, wd[o:o+n:o+n], de)
				for _, c := range rd[o : o+n] {
					rr2 += c * c
				}
			}
		}
		out[0] += de
		out[1] += rr2
	})
	// Identity: u = r, so γ = rr.
	return acc[1], acc[0], acc[1]
}

// oracleResidual computes r = rhs − A·u over b.
func (op *Operator3D) oracleResidual(pool *par.Pool, b grid.Bounds3D, u, rhs, r *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	sy, sz := op.oracleStrides()
	ud, bd, rd := u.Data, rhs.Data, r.Data
	n := b.X1 - b.X0
	pool.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				o := g.Index(b.X0, j, k)
				kx, ks, kn, kb, kf := op.oracleKRows(o, n, sy, sz)
				uc, us, un, ub, uf := oraclePRows(ud, o, n, sy, sz)
				rs := rd[o : o+n : o+n]
				applyRow7(kx, ks, kn, kb, kf, uc, us, un, ub, uf, rs)
				for i, v := range bd[o : o+n] {
					rs[i] = v - rs[i]
				}
			}
		}
	})
}

func (op *Operator3D) oracleDiagonal(pool *par.Pool, b grid.Bounds3D, d *grid.Field3D, inv bool) {
	if b.Empty() {
		return
	}
	g := op.Grid
	sy := g.NX + 2*g.Halo
	sz := sy * (g.NY + 2*g.Halo)
	kx, ky, kz := op.Kx.Data, op.Ky.Data, op.Kz.Data
	dd := d.Data
	n := b.X1 - b.X0
	pool.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				o := g.Index(b.X0, j, k)
				ds := dd[o : o+n : o+n]
				kxe, kxw := kx[o+1 : o+n+1][:len(ds)], kx[o : o+n][:len(ds)]
				kyn, kys := ky[o+sy : o+sy+n][:len(ds)], ky[o : o+n][:len(ds)]
				kzf, kzb := kz[o+sz : o+sz+n][:len(ds)], kz[o : o+n][:len(ds)]
				for i := range ds {
					v := 1 + (kxe[i] + kxw[i]) + (kyn[i] + kys[i]) + (kzf[i] + kzb[i])
					if inv {
						v = 1 / v
					}
					ds[i] = v
				}
			}
		}
	})
}

// oracleCGIter runs one fused-CG iteration body in one pass: over sb
//
//	s = w + β·s;  r −= α·s
//
// and on the cells of sb inside in also p = (minv ⊙ r_old) + β·p,
// x += α·p and the dots γ = Σ r·(minv ⊙ r), rr = Σ r·r of the new r
// (kernels.FusedCGStep); then over mb w = A·u, u = minv ⊙ r, with
// δ = Σ u·w on the cells inside in (ApplyPreDot). nil minv is the
// identity. p and x are read and written on in only: on a matrix-powers
// ring only r and s advance, the recurrences a later matvec reads.
//
// Requires in ⊆ mb ⊆ sb, with r's new values needed one cell beyond mb
// either inside sb or supplied by mirror: on each side set there CGIter
// writes r's depth-1 mirror halo as it steps the rows next to it, as the
// communicator's reflection would, so a single-rank iteration needs no
// exchange between its two halves. rows, when non-nil, is called once for
// each row k of in as soon as w's cells on it are final, from whichever
// worker computed them (the deflation projector takes its restriction
// sums there).
func (op *Operator2D) oracleCGIter(pool *par.Pool, sb, mb, in grid.Bounds, mirror PhysicalSides, minv, r, w *grid.Field2D, beta, alpha float64, p, s, x *grid.Field2D, rows func(k int)) (gamma, rr, delta float64) {
	c := &oracleCGIter2D{op: op, sb: sb, mb: mb, in: in, mirror: mirror,
		rd: r.Data, wd: w.Data, pd: p.Data, sd: s.Data, xd: x.Data,
		beta: beta, alpha: alpha, rows: rows}
	if minv != nil {
		c.md = minv.Data
	}
	acc := pool.ForBandsReduceN(3, in.Y0, in.Y1, c.edge, c.band)
	return acc[0], acc[1], acc[2]
}

// oracleCGIter2D is one CGIter call: its bounds, fields and scalars.
type oracleCGIter2D struct {
	op                     *Operator2D
	sb, mb, in             grid.Bounds
	mirror                 PhysicalSides
	md, rd, wd, pd, sd, xd []float64
	beta, alpha            float64
	rows                   func(k int)
}

// edge steps a row next to a band cut, its dots left for the owner.
func (c *oracleCGIter2D) edge(k int) { c.step(k, nil) }

// band walks rows [b0, b1) of in — extended to sb's and mb's rows beyond
// in for the first and last band — stepping row k+1 before the matvec of
// row k, and adds its (γ, rr, δ) partials to acc.
func (c *oracleCGIter2D) band(b0, b1 int, acc []float64) {
	lo, hi := c.in.Y0, c.in.Y1
	s0, s1, m0, m1 := b0, b1, b0, b1
	if b0 == lo {
		s0, m0 = c.sb.Y0, c.mb.Y0
	}
	if b1 == hi {
		s1, m1 = c.sb.Y1, c.mb.Y1
	}
	var l kernels.CGStepLanes
	next := s0
	stepTo := func(k int) {
		for ; next <= k && next < s1; next++ {
			if (next == b0 && b0 != lo) || (next == b1-1 && b1 != hi) {
				c.dots(next, &l)
			} else {
				c.step(next, &l)
			}
		}
	}
	var pw [4]float64
	var uw [2]float64
	var us, uc, un []float64
	width := c.mb.X1 - c.mb.X0 + 2
	if c.md != nil {
		buf := oracleWindow(3 * width)
		defer oraclePutWindow(buf)
		us = (*buf)[0*width : 1*width : 1*width] // row k−1
		uc = (*buf)[1*width : 2*width : 2*width] // row k
		un = (*buf)[2*width : 3*width : 3*width] // row k+1
	}
	for k := m0; k < m1; k++ {
		stepTo(k + 1)
		if c.md != nil {
			if k == m0 {
				c.fill(us, k-1)
				c.fill(uc, k)
			}
			c.fill(un, k+1)
		}
		c.matvec(k, &pw, &uw, us, uc, un)
		if c.rows != nil && k >= lo && k < hi {
			c.rows(k)
		}
		us, uc, un = uc, un, us
	}
	stepTo(s1 - 1)
	l.Fold(c.md == nil, acc)
	if c.md == nil {
		acc[2] += (pw[0] + pw[1]) + (pw[2] + pw[3])
	} else {
		acc[2] += uw[0] + uw[1]
	}
}

// step advances row k over sb's columns (see CGIter), the interior run's
// dots into l (discarded for a nil l), then writes the row's mirror halo.
func (c *oracleCGIter2D) step(k int, l *kernels.CGStepLanes) {
	g := c.op.Grid
	sb, in := c.sb, c.in
	var spare kernels.CGStepLanes
	if l == nil {
		l = &spare
	}
	row := g.Index(sb.X0, k)
	a0, a1 := max(in.X0, sb.X0)-sb.X0, min(in.X1, sb.X1)-sb.X0
	rowRuns(sb.X1-sb.X0, a0, a1, k >= in.Y0 && k < in.Y1, func(off, n int, interior bool) {
		if n == 0 {
			return
		}
		o := row + off
		var ms []float64
		if c.md != nil {
			ms = c.md[o : o+n]
		}
		rs, ws, ss := c.rd[o:o+n], c.wd[o:o+n], c.sd[o:o+n]
		if interior {
			kernels.CGStepPX(ms, rs, c.pd[o:o+n], c.xd[o:o+n], c.beta, c.alpha)
			l.CGStepSR(ms, rs, ws, ss, c.beta, c.alpha)
			return
		}
		spare.CGStepSR(ms, rs, ws, ss, c.beta, c.alpha)
	})
	c.reflect(k)
}

// dots re-reads interior row k's stored r into l (a row edge stepped).
func (c *oracleCGIter2D) dots(k int, l *kernels.CGStepLanes) {
	o := c.op.Grid.Index(c.in.X0, k)
	n := c.in.X1 - c.in.X0
	var ms []float64
	if c.md != nil {
		ms = c.md[o : o+n]
	}
	l.Dots(ms, c.rd[o:o+n])
}

// reflect writes the mirror halo of r that row k owns: its own x-halo
// cells, and for the first (last) row the whole row below (above),
// corners included — the cells Field2D.ReflectHalos(1) writes, with the
// same values.
func (c *oracleCGIter2D) reflect(k int) {
	g, m, rd := c.op.Grid, c.mirror, c.rd
	if k < 0 || k >= g.NY {
		return
	}
	o, s := g.Index(0, k), g.Stride()
	if m.Left {
		rd[o-1] = rd[o]
	}
	if m.Right {
		rd[o+g.NX] = rd[o+g.NX-1]
	}
	if m.Down && k == 0 {
		copy(rd[o-s-1:o-s+g.NX+1], rd[o-1:o+g.NX+1])
	}
	if m.Up && k == g.NY-1 {
		copy(rd[o+s-1:o+s+g.NX+1], rd[o-1:o+g.NX+1])
	}
}

// fill writes window row dst = minv ⊙ r over row k of mb's columns
// extended one cell each side.
func (c *oracleCGIter2D) fill(dst []float64, k int) {
	o := c.op.Grid.Index(c.mb.X0-1, k)
	n := len(dst)
	fillWindowRow(dst, c.md[o:o+n:o+n], c.rd[o:o+n:o+n])
}

// matvec computes w = A·u over row k of mb, adding the interior run's
// u·w to pw (identity) or, through the window rows us, uc, un, to uw.
func (c *oracleCGIter2D) matvec(k int, pw *[4]float64, uw *[2]float64, us, uc, un []float64) {
	g := c.op.Grid
	s := g.Stride()
	kx, ky, rd, wd := c.op.Kx.Data, c.op.Ky.Data, c.rd, c.wd
	mb, in := c.mb, c.in
	var spw [4]float64
	var suw [2]float64
	row := g.Index(mb.X0, k)
	a0, a1 := max(in.X0, mb.X0)-mb.X0, min(in.X1, mb.X1)-mb.X0
	rowRuns(mb.X1-mb.X0, a0, a1, k >= in.Y0 && k < in.Y1, func(off, n int, interior bool) {
		if n == 0 {
			return
		}
		o := row + off
		if c.md == nil {
			lanes := &spw
			if interior {
				lanes = pw
			}
			applyDotRow5(kx[o:o+n+1], ky[o+s:o+s+n], ky[o:o+n],
				rd[o+s:o+s+n], rd[o-s:o-s+n], rd[o-1:o+n+1], wd[o:o+n:o+n], lanes)
			return
		}
		lanes := &suw
		if interior {
			lanes = uw
		}
		applyPreDotRow5(kx[o:o+n+1], ky[o+s:o+s+n], ky[o:o+n],
			un[off+1:off+1+n], us[off+1:off+1+n], uc[off:off+n+2], wd[o:o+n:o+n], lanes)
	})
}

// oracleCGIter is the 3D one-pass fused-CG iteration body — see
// Operator2D.CGIter. The matvec lags the step by one z-plane, through
// ApplyPreDot's three-plane window of u = minv ⊙ r; rows is called with
// (j, k) for each row of in.
func (op *Operator3D) oracleCGIter(pool *par.Pool, sb, mb, in grid.Bounds3D, mirror PhysicalSides3D, minv, r, w *grid.Field3D, beta, alpha float64, p, s, x *grid.Field3D, rows func(j, k int)) (gamma, rr, delta float64) {
	c := &oracleCGIter3D{op: op, sb: sb, mb: mb, in: in, mirror: mirror,
		rd: r.Data, wd: w.Data, pd: p.Data, sd: s.Data, xd: x.Data,
		beta: beta, alpha: alpha, rows: rows}
	if minv != nil {
		c.md = minv.Data
	}
	acc := pool.ForBandsReduceN(3, in.Z0, in.Z1, c.edge, c.band)
	return acc[0], acc[1], acc[2]
}

// oracleCGIter3D is one 3D CGIter call (see oracleCGIter2D); its rows are z-planes.
type oracleCGIter3D struct {
	op                     *Operator3D
	sb, mb, in             grid.Bounds3D
	mirror                 PhysicalSides3D
	md, rd, wd, pd, sd, xd []float64
	beta, alpha            float64
	rows                   func(j, k int)
}

func (c *oracleCGIter3D) edge(k int) { c.step(k, nil) }

// band is oracleCGIter2D.band over z-planes.
func (c *oracleCGIter3D) band(b0, b1 int, acc []float64) {
	lo, hi := c.in.Z0, c.in.Z1
	s0, s1, m0, m1 := b0, b1, b0, b1
	if b0 == lo {
		s0, m0 = c.sb.Z0, c.mb.Z0
	}
	if b1 == hi {
		s1, m1 = c.sb.Z1, c.mb.Z1
	}
	var l kernels.CGStepLanes
	next := s0
	stepTo := func(k int) {
		for ; next <= k && next < s1; next++ {
			if (next == b0 && b0 != lo) || (next == b1-1 && b1 != hi) {
				c.dots(next, &l)
			} else {
				c.step(next, &l)
			}
		}
	}
	var dl oracleDot2Lanes
	var delta float64
	var ub, uc, uf []float64
	plane := (c.mb.X1 - c.mb.X0 + 2) * (c.mb.Y1 - c.mb.Y0 + 2)
	if c.md != nil {
		buf := oracleWindow(3 * plane)
		defer oraclePutWindow(buf)
		ub = (*buf)[0*plane : 1*plane : 1*plane] // plane k−1
		uc = (*buf)[1*plane : 2*plane : 2*plane] // plane k
		uf = (*buf)[2*plane : 3*plane : 3*plane] // plane k+1
	}
	for k := m0; k < m1; k++ {
		stepTo(k + 1)
		if c.md != nil {
			if k == m0 {
				c.fill(ub, k-1)
				c.fill(uc, k)
			}
			c.fill(uf, k+1)
		}
		c.matvec(k, &dl, &delta, ub, uc, uf)
		if c.rows != nil && k >= lo && k < hi {
			for j := c.in.Y0; j < c.in.Y1; j++ {
				c.rows(j, k)
			}
		}
		ub, uc, uf = uc, uf, ub
	}
	stepTo(s1 - 1)
	l.Fold(c.md == nil, acc)
	if c.md == nil {
		acc[2] += dl.pw0 + dl.pw1
	} else {
		acc[2] += delta
	}
}

// step advances plane k over sb's rows and columns, then writes the
// plane's mirror halo.
func (c *oracleCGIter3D) step(k int, l *kernels.CGStepLanes) {
	g := c.op.Grid
	sb, in := c.sb, c.in
	var spare kernels.CGStepLanes
	if l == nil {
		l = &spare
	}
	a0, a1 := max(in.X0, sb.X0)-sb.X0, min(in.X1, sb.X1)-sb.X0
	inZ := k >= in.Z0 && k < in.Z1
	for j := sb.Y0; j < sb.Y1; j++ {
		row := g.Index(sb.X0, j, k)
		rowRuns(sb.X1-sb.X0, a0, a1, inZ && j >= in.Y0 && j < in.Y1, func(off, n int, interior bool) {
			if n == 0 {
				return
			}
			o := row + off
			var ms []float64
			if c.md != nil {
				ms = c.md[o : o+n]
			}
			rs, ws, ss := c.rd[o:o+n], c.wd[o:o+n], c.sd[o:o+n]
			if interior {
				kernels.CGStepPX(ms, rs, c.pd[o:o+n], c.xd[o:o+n], c.beta, c.alpha)
				l.CGStepSR(ms, rs, ws, ss, c.beta, c.alpha)
				return
			}
			spare.CGStepSR(ms, rs, ws, ss, c.beta, c.alpha)
		})
	}
	c.reflect(k)
}

// dots re-reads the stored r of plane k's interior rows into l.
func (c *oracleCGIter3D) dots(k int, l *kernels.CGStepLanes) {
	g, in := c.op.Grid, c.in
	n := in.X1 - in.X0
	for j := in.Y0; j < in.Y1; j++ {
		o := g.Index(in.X0, j, k)
		var ms []float64
		if c.md != nil {
			ms = c.md[o : o+n]
		}
		l.Dots(ms, c.rd[o:o+n])
	}
}

// reflect writes the mirror halo of r that plane k owns, as
// Field3D.ReflectHalos(1) would: the x-halo cells of its rows, then its
// y-halo rows spanning them, and for the first (last) plane the whole
// plane behind (in front), edges and corners included.
func (c *oracleCGIter3D) reflect(k int) {
	g, m, rd := c.op.Grid, c.mirror, c.rd
	if k < 0 || k >= g.NZ {
		return
	}
	sy, sz := c.op.oracleStrides()
	if m.Left || m.Right {
		for j := 0; j < g.NY; j++ {
			o := g.Index(0, j, k)
			if m.Left {
				rd[o-1] = rd[o]
			}
			if m.Right {
				rd[o+g.NX] = rd[o+g.NX-1]
			}
		}
	}
	w := g.NX + 2
	if m.Down {
		o := g.Index(-1, 0, k)
		copy(rd[o-sy:o-sy+w], rd[o:o+w])
	}
	if m.Up {
		o := g.Index(-1, g.NY-1, k)
		copy(rd[o+sy:o+sy+w], rd[o:o+w])
	}
	plane := func(d int) {
		for j := -1; j <= g.NY; j++ {
			o := g.Index(-1, j, k)
			copy(rd[o+d:o+d+w], rd[o:o+w])
		}
	}
	if m.Back && k == 0 {
		plane(-sz)
	}
	if m.Front && k == g.NZ-1 {
		plane(sz)
	}
}

// fill writes window plane dst = minv ⊙ r over plane k of mb's rows and
// columns, each extended one cell each side.
func (c *oracleCGIter3D) fill(dst []float64, k int) {
	g, mb := c.op.Grid, c.mb
	width := mb.X1 - mb.X0 + 2
	for jw := 0; jw < mb.Y1-mb.Y0+2; jw++ {
		o := g.Index(mb.X0-1, mb.Y0-1+jw, k)
		fillWindowRow(dst[jw*width:][:width], c.md[o:o+width], c.rd[o:o+width])
	}
}

// matvec computes w = A·u over plane k of mb, adding the interior runs'
// u·w to dl (identity, ApplyDot2's lanes) or, in cell order through the
// window planes ub, uc, uf, to delta.
func (c *oracleCGIter3D) matvec(k int, dl *oracleDot2Lanes, delta *float64, ub, uc, uf []float64) {
	op, g := c.op, c.op.Grid
	sy, sz := op.oracleStrides()
	rd, wd := c.rd, c.wd
	mb, in := c.mb, c.in
	width := mb.X1 - mb.X0 + 2
	var spare oracleDot2Lanes
	a0, a1 := max(in.X0, mb.X0)-mb.X0, min(in.X1, mb.X1)-mb.X0
	inZ := k >= in.Z0 && k < in.Z1
	for j := mb.Y0; j < mb.Y1; j++ {
		row := g.Index(mb.X0, j, k)
		rowRuns(mb.X1-mb.X0, a0, a1, inZ && j >= in.Y0 && j < in.Y1, func(off, n int, interior bool) {
			if n == 0 {
				return
			}
			o := row + off
			kx, ks, kn, kb, kf := op.oracleKRows(o, n, sy, sz)
			if c.md == nil {
				lanes := &spare
				if interior {
					lanes = dl
				}
				pc, ps, pn, pb, pf := oraclePRows(rd, o, n, sy, sz)
				lanes.applyDot2Row(kx, ks, kn, kb, kf, pc, ps, pn, pb, pf, wd[o:o+n:o+n])
				return
			}
			// Cell (X0+off, j) of a plane is window element wo.
			wo := (j-mb.Y0+1)*width + 1 + off
			var dot float64
			if interior {
				dot = *delta
			}
			dot = applyDotRow(kx, ks, kn, kb, kf,
				uc[wo-1:wo+n+1], uc[wo-width:wo-width+n], uc[wo+width:wo+width+n], ub[wo:wo+n], uf[wo:wo+n],
				wd[o:o+n:o+n], dot)
			if interior {
				*delta = dot
			}
		})
	}
}

// oracleChebySteps runs the Chebyshev steps of one matrix-powers block in one
// pass (see the file comment): step j runs over bs[j] with alphas[j] and
// betas[j], rtemp −= A·sdOld, sdNew = α·sdOld + β·(minv ⊙ rtemp), then
// acc += sdNew on the cells of bs[j] inside in, where sdOld is sd for
// even j and alt for odd j and sdNew the other. nil minv selects the
// identity preconditioner. Every field ends as if the steps had run one
// sweep each, in order: step j reads its sdOld one cell beyond bs[j] and
// writes sdNew on bs[j] only. After an odd number of steps the newest
// direction is in alt.
func (op *Operator2D) oracleChebySteps(pool *par.Pool, bs []grid.Bounds, in grid.Bounds, alphas, betas []float64, sd, alt, rtemp, minv, acc *grid.Field2D) {
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

// oracleChebySteps is the 3D block of Chebyshev steps — see
// Operator2D.ChebySteps. The wavefront walks z-planes.
func (op *Operator3D) oracleChebySteps(pool *par.Pool, bs []grid.Bounds3D, in grid.Bounds3D, alphas, betas []float64, sd, alt, rtemp, minv, acc *grid.Field3D) {
	lo, hi := math.MaxInt, math.MinInt
	for _, b := range bs {
		lo, hi = min(lo, b.Z0), max(hi, b.Z1)
	}
	g := op.Grid
	sy, sz := op.oracleStrides()
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
				kx, ks, kn, kb, kf := op.oracleKRows(o, n, sy, sz)
				pc, ps, pn, pb, pf := oraclePRows(od, o, n, sy, sz)
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

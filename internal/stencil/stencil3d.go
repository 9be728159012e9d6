package stencil

import (
	"fmt"
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/simd"
)

// PhysicalSides3D records which faces of a 3D (sub-)grid lie on the
// physical domain boundary, where the zero-flux condition zeroes the face
// coefficients. A rank interior to the process grid has none.
type PhysicalSides3D struct {
	Left, Right, Down, Up, Back, Front bool
}

// AllPhysical3D is the single-rank / global-grid case.
var AllPhysical3D = PhysicalSides3D{Left: true, Right: true, Down: true, Up: true, Back: true, Front: true}

// Operator3D is the matrix-free 7-point operator for the 3D heat equation,
// the direct extension of Operator2D with a third coefficient direction.
type Operator3D struct {
	Grid       *grid.Grid3D
	Kx, Ky, Kz *grid.Field3D
	Rx, Ry, Rz float64
}

// BuildOperator3D derives 3D face coefficients from the cell-centred
// density; see BuildOperator2D for the construction. The density must
// have valid halo values wherever the operator will be applied (reflected
// on physical faces, exchanged across rank boundaries); faces on the
// physical boundary are zeroed (zero-flux), faces on rank boundaries keep
// their neighbour-coupled coefficients so the distributed operator equals
// the global one.
func BuildOperator3D(pool *par.Pool, density *grid.Field3D, dt float64, coef Coefficient, phys PhysicalSides3D) (*Operator3D, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("stencil: dt = %v must be positive and finite", dt)
	}
	if coef != Conductivity && coef != RecipConductivity {
		return nil, fmt.Errorf("stencil: unknown coefficient mode %d", int(coef))
	}
	g := density.Grid
	op := &Operator3D{
		Grid: g,
		Kx:   grid.NewField3D(g), Ky: grid.NewField3D(g), Kz: grid.NewField3D(g),
		Rx: dt / (g.DX * g.DX), Ry: dt / (g.DY * g.DY), Rz: dt / (g.DZ * g.DZ),
	}
	// Face coefficients at every cell whose west, south and back
	// neighbours are addressable: planes, rows and columns from −h+1. Each band rolls two padded planes of
	// the per-cell coefficient w (planes k−1 and k) through its planes,
	// so every padded plane of density passes through some band and is
	// checked.
	h := g.Halo
	sy, sz := op.strides()
	recip := coef == RecipConductivity
	rho, kx, ky, kz := density.Data, op.Kx.Data, op.Ky.Data, op.Kz.Data
	bad := pool.ForReduce(-h+1, g.NZ+h, func(k0, k1 int) float64 {
		back, cur := make([]float64, sz), make([]float64, sz)
		o := g.Index(-h, -h, k0-1)
		n := coefRow(back, rho[o:o+sz], recip)
		for k := k0; k < k1; k++ {
			o += sz
			n += coefRow(cur, rho[o:o+sz], recip)
			for r := sy; r < sz; r += sy {
				faceRow3D(kx[o+r:o+r+sy], ky[o+r:o+r+sy], kz[o+r:o+r+sy],
					cur[r-sy:r], cur[r:r+sy], back[r:r+sy], op.Rx, op.Ry, op.Rz)
			}
			back, cur = cur, back
		}
		return n
	})
	if bad > 0 {
		return nil, fmt.Errorf("stencil: non-positive or NaN density encountered")
	}
	// Zero-flux on the physical faces only.
	if phys.Left || phys.Right {
		for k := -h; k < g.NZ+h; k++ {
			for j := -h; j < g.NY+h; j++ {
				if phys.Left {
					for i := -h; i <= 0; i++ {
						op.Kx.Set(i, j, k, 0)
					}
				}
				if phys.Right {
					for i := g.NX; i < g.NX+h; i++ {
						op.Kx.Set(i, j, k, 0)
					}
				}
			}
		}
	}
	if phys.Down || phys.Up {
		for k := -h; k < g.NZ+h; k++ {
			for i := -h; i < g.NX+h; i++ {
				if phys.Down {
					for j := -h; j <= 0; j++ {
						op.Ky.Set(i, j, k, 0)
					}
				}
				if phys.Up {
					for j := g.NY; j < g.NY+h; j++ {
						op.Ky.Set(i, j, k, 0)
					}
				}
			}
		}
	}
	if phys.Back || phys.Front {
		for j := -h; j < g.NY+h; j++ {
			for i := -h; i < g.NX+h; i++ {
				if phys.Back {
					for k := -h; k <= 0; k++ {
						op.Kz.Set(i, j, k, 0)
					}
				}
				if phys.Front {
					for k := g.NZ; k < g.NZ+h; k++ {
						op.Kz.Set(i, j, k, 0)
					}
				}
			}
		}
	}
	return op, nil
}

// faceRow3D writes one padded row of the 3D face coefficients from the
// coefficient rows cur (this row), south (row j−1) and back (plane k−1),
// every cell but the first:
//
//	Kx = rx·((w(i−1)+w(i)) / (2·w(i−1)·w(i))),  Ky, Kz likewise.
func faceRow3D(kx, ky, kz, south, cur, back []float64, rx, ry, rz float64) {
	n := len(cur)
	kx, ky, kz, south, back = kx[:n], ky[:n], kz[:n], south[:n], back[:n]
	for i := 1; i < n; i++ {
		wl, wc, ws, wb := cur[i-1], cur[i], south[i], back[i]
		kx[i] = rx * ((wl + wc) / (2 * wl * wc))
		ky[i] = ry * ((ws + wc) / (2 * ws * wc))
		kz[i] = rz * ((wb + wc) / (2 * wb * wc))
	}
}

// point7 evaluates one row of the 7-point operator at a cell: the
// diagonal 1 + ΣK times the centre value c minus the six face-weighted
// neighbours (kw/ke the west/east Kx faces with values w/e, ks/kn south
// and north in y, kb/kf back and front in z). Every sweep in this file
// evaluates a cell through this one expression, so their w fields agree
// bit for bit whichever of them computed a cell.
func point7(kw, ke, ks, kn, kb, kf, c, w, e, s, n, b, f float64) float64 {
	return (1+(ke+kw)+(kn+ks)+(kf+kb))*c - (ke*e + kw*w) - (kn*n + ks*s) - (kf*f + kb*b)
}

// The sweeps below walk their tiles row by row and hand each row of n
// cells to a leaf function as ten rows, laid out like the 2D leaves'
// (see applyDotRow5): the x-face row kx extended to n+1 (kx[i], kx[i+1]
// are cell i's west and east faces), the centre row p extended one cell
// each side to n+2 (p[i], p[i+1], p[i+2] are its west, centre and east
// values), and the south/north/back/front face and value rows. The Go
// forms cut kx and p into their west/centre/east views with xRows and
// re-slice every row to the output row's length, which is what lets the
// compiler drop the per-element bounds checks — it cannot see through
// slices held in a struct (the indirection stencil.go measured at 40% of
// ApplyDot2's bandwidth), nor relate slices of different lengths indexed
// at i, i+1, i+2. Behind simd.AVX2 applyDotRow runs as assembly
// (leaves7_amd64.s) that computes the same bits; see DESIGN.md, "AVX2 row
// leaves".

// strides returns the flat-index distance between y-neighbours and
// between z-neighbours of the padded grid.
func (op *Operator3D) strides() (sy, sz int) {
	g := op.Grid
	sy = g.NX + 2*g.Halo
	return sy, sy * (g.NY + 2*g.Halo)
}

// kRows returns the face-coefficient rows of the n cells starting at
// flat index o: Kx extended to n+1, south/north Ky, back/front Kz.
func (op *Operator3D) kRows(o, n, sy, sz int) (kx, ks, kn, kb, kf []float64) {
	x, y, z := op.Kx.Data, op.Ky.Data, op.Kz.Data
	return x[o : o+n+1], y[o : o+n], y[o+sy : o+sy+n], z[o : o+n], z[o+sz : o+sz+n]
}

// pRows returns the five rows of p the stencil reads for the n cells
// starting at flat index o: the centre row extended one cell each side,
// then south, north, back, front.
func pRows(p []float64, o, n, sy, sz int) (pc, ps, pn, pb, pf []float64) {
	return p[o-1 : o+n+1], p[o-sy : o-sy+n], p[o+sy : o+sy+n], p[o-sz : o-sz+n], p[o+sz : o+sz+n]
}

// xRows cuts the extended x-face row and centre row of an n-cell run into
// the equal-length views the Go leaves index at i: west and east faces,
// west, centre and east values.
func xRows(kx, p []float64, n int) (kw, ke, pw, pc, pe []float64) {
	return kx[:n], kx[1 : n+1], p[:n], p[1 : n+1], p[2 : n+2]
}

// applyRow is the plain row leaf: ws = A·p over one row.
func applyRow(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64) {
	n := len(ws)
	kw, ke, pw, pc, pe := xRows(kx, p, n)
	ks, kn, kb, kf = ks[:n], kn[:n], kb[:n], kf[:n]
	ps, pn, pb, pf = ps[:n], pn[:n], pb[:n], pf[:n]
	for i := range ws {
		ws[i] = point7(kw[i], ke[i], ks[i], kn[i], kb[i], kf[i], pc[i], pw[i], pe[i], ps[i], pn[i], pb[i], pf[i])
	}
}

// applyDotRow is the row leaf of ApplyDot, ApplyPreDot and
// ApplyPreDotInit: ws = A·p over one row, adding Σ p·w to dot through
// a single accumulator in cell order. The assembly form computes four
// cells' p·w in one register and still adds them to dot one at a time,
// in cell order.
func applyDotRow(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64, dot float64) float64 {
	if simd.AVX2 {
		return applyDotRowAVX2(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws, dot)
	}
	return applyDotRowGo(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws, dot)
}

// applyDotRowGo is the Go form of applyDotRow (2-way unrolled, one
// chain).
func applyDotRowGo(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64, dot float64) float64 {
	n := len(ws)
	kw, ke, pw, pc, pe := xRows(kx, p, n)
	ks, kn, kb, kf = ks[:n], kn[:n], kb[:n], kf[:n]
	ps, pn, pb, pf = ps[:n], pn[:n], pb[:n], pf[:n]
	i := 0
	for ; i+1 < n; i += 2 {
		c0 := pc[i]
		v0 := point7(kw[i], ke[i], ks[i], kn[i], kb[i], kf[i], c0, pw[i], pe[i], ps[i], pn[i], pb[i], pf[i])
		ws[i] = v0
		dot += c0 * v0
		c1 := pc[i+1]
		v1 := point7(kw[i+1], ke[i+1], ks[i+1], kn[i+1], kb[i+1], kf[i+1], c1, pw[i+1], pe[i+1], ps[i+1], pn[i+1], pb[i+1], pf[i+1])
		ws[i+1] = v1
		dot += c1 * v1
	}
	for ; i < n; i++ {
		c := pc[i]
		v := point7(kw[i], ke[i], ks[i], kn[i], kb[i], kf[i], c, pw[i], pe[i], ps[i], pn[i], pb[i], pf[i])
		ws[i] = v
		dot += c * v
	}
	return dot
}

// dot2Lanes carries ApplyDot2's two lanes each of p·w and w·w across
// the rows of one tile.
type dot2Lanes struct{ pw0, pw1, ww0, ww1 float64 }

// applyDot2Row is the row leaf of ApplyDot2: ws = A·p over one row with
// p·w and w·w accumulated into the tile's lanes.
func (l *dot2Lanes) applyDot2Row(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64) {
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

// box3s is the par.Box for a 3D stencil bounds.
func box3s(b grid.Bounds3D) par.Box {
	return par.Box3D(b.X0, b.X1, b.Y0, b.Y1, b.Z0, b.Z1)
}

// Apply computes w = A·p over the cells of b. p must have valid values
// one cell beyond b on every side.
func (op *Operator3D) Apply(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	sy, sz := op.strides()
	pd, wd := p.Data, w.Data
	pool.ForTiles(box3s(b), func(t par.Tile) {
		n := t.X1 - t.X0
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				o := g.Index(t.X0, j, k)
				kx, ks, kn, kb, kf := op.kRows(o, n, sy, sz)
				pc, ps, pn, pb, pf := pRows(pd, o, n, sy, sz)
				applyRow(kx, ks, kn, kb, kf, pc, ps, pn, pb, pf, wd[o:o+n:o+n])
			}
		}
	})
}

// ApplyDot fuses w = A·p with pw = p·w over b.
func (op *Operator3D) ApplyDot(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) float64 {
	if b.Empty() {
		return 0
	}
	g := op.Grid
	sy, sz := op.strides()
	pd, wd := p.Data, w.Data
	return pool.ForTilesReduceN(1, box3s(b), func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var dot float64
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				o := g.Index(t.X0, j, k)
				kx, ks, kn, kb, kf := op.kRows(o, n, sy, sz)
				pc, ps, pn, pb, pf := pRows(pd, o, n, sy, sz)
				dot = applyDotRow(kx, ks, kn, kb, kf, pc, ps, pn, pb, pf, wd[o:o+n:o+n], dot)
			}
		}
		acc[0] += dot
	})[0]
}

// ApplyDot2 computes w = A·p fused with the two dot products p·w and w·w
// over b in one sweep — the 3D variant of Operator2D.ApplyDot2, used by
// the fused single-reduction CG (p·w feeds the Chronopoulos–Gear step
// scalar, w·w is a free breakdown sentinel).
func (op *Operator3D) ApplyDot2(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) (pw, ww float64) {
	if b.Empty() {
		return 0, 0
	}
	acc2 := pool.ForTilesReduceN(2, box3s(b), op.applyDot2Body(p.Data, w.Data))
	return acc2[0], acc2[1]
}

// applyDot2Body is ApplyDot2's tile body: one applyDot2Row leaf per row,
// the tile's (p·w, w·w) lanes folded into acc.
func (op *Operator3D) applyDot2Body(pd, wd []float64) func(t par.Tile, acc []float64) {
	g := op.Grid
	sy, sz := op.strides()
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var l dot2Lanes
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				o := g.Index(t.X0, j, k)
				kx, ks, kn, kb, kf := op.kRows(o, n, sy, sz)
				pc, ps, pn, pb, pf := pRows(pd, o, n, sy, sz)
				l.applyDot2Row(kx, ks, kn, kb, kf, pc, ps, pn, pb, pf, wd[o:o+n:o+n])
			}
		}
		acc[0] += l.pw0 + l.pw1
		acc[1] += l.ww0 + l.ww1
	}
}

// ApplyPreDot computes w = A·u with u = minv ⊙ r (the diagonally
// preconditioned residual, evaluated on the fly — u is never
// materialised) fused with δ = u·w over b, the 3D variant of the 2D
// ApplyPreDot. nil minv selects the identity (u = r). minv must be valid
// one cell beyond b on every side, which NewJacobi3D guarantees on the
// padded region minus its outermost layer.
func (op *Operator3D) ApplyPreDot(pool *par.Pool, b grid.Bounds3D, minv *grid.Field3D, r, w *grid.Field3D) float64 {
	if minv == nil {
		pw, _ := op.ApplyDot2(pool, b, r, w)
		return pw
	}
	if b.Empty() {
		return 0
	}
	return pool.ForTilesReduceN(1, box3s(b), op.applyPreDotBody(minv.Data, r.Data, w.Data, false))[0]
}

// applyPreDotBody is the tile body of ApplyPreDot and, with init set, of
// the preconditioned ApplyPreDotInit — one closure, so the startup and
// in-loop sweeps cannot drift bit-wise. It is the 2D body's design one dimension up: each
// worker keeps a rolling three-plane window of u = minv ⊙ r, the tile's
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
func (op *Operator3D) applyPreDotBody(md, rd, wd []float64, init bool) func(t par.Tile, acc []float64) {
	g := op.Grid
	sy, sz := op.strides()
	return func(t par.Tile, acc []float64) {
		n, ny := t.X1-t.X0, t.Y1-t.Y0
		width := n + 2
		plane := width * (ny + 2)
		buf := getWindow(3 * plane)
		ub := (*buf)[0*plane : 1*plane : 1*plane] // plane k−1
		uc := (*buf)[1*plane : 2*plane : 2*plane] // plane k
		uf := (*buf)[2*plane : 3*plane : 3*plane] // plane k+1
		fill := func(dst []float64, k int) {
			for jw := 0; jw < ny+2; jw++ {
				o := g.Index(t.X0-1, t.Y0-1+jw, k)
				fillWindowRow(dst[jw*width:][:width], md[o:o+width], rd[o:o+width])
			}
		}
		fill(ub, t.Z0-1)
		fill(uc, t.Z0)
		var gamma, delta, rr float64
		for k := t.Z0; k < t.Z1; k++ {
			fill(uf, k+1)
			for j := t.Y0; j < t.Y1; j++ {
				o := g.Index(t.X0, j, k)
				kx, ks, kn, kb, kf := op.kRows(o, n, sy, sz)
				// Cell (X0, j) of a plane is window element wo.
				wo := (j-t.Y0+1)*width + 1
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
		putWindow(buf)
	}
}

// initDotsRow adds one row's Σ r·u and Σ r·r to gamma and rr, each in
// cell order.
func initDotsRow(rs, us []float64, gamma, rr float64) (float64, float64) {
	us = us[:len(rs)]
	for i, c := range rs {
		gamma += c * us[i]
		rr += c * c
	}
	return gamma, rr
}

// ApplyPreDotInit is the fused startup sweep of the 3D single-reduction
// CG: w = A·u with u = minv ⊙ r, returning γ = r·u, δ = u·w and rr = r·r
// in one pass. nil minv selects the identity (γ == rr).
func (op *Operator3D) ApplyPreDotInit(pool *par.Pool, b grid.Bounds3D, minv *grid.Field3D, r, w *grid.Field3D) (gamma, delta, rr float64) {
	if b.Empty() {
		return 0, 0, 0
	}
	rd, wd := r.Data, w.Data
	if minv != nil {
		acc := pool.ForTilesReduceN(3, box3s(b), op.applyPreDotBody(minv.Data, rd, wd, true))
		return acc[0], acc[1], acc[2]
	}
	g := op.Grid
	sy, sz := op.strides()
	acc := pool.ForTilesReduceN(2, box3s(b), func(t par.Tile, out []float64) {
		n := t.X1 - t.X0
		var de, rr2 float64
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				o := g.Index(t.X0, j, k)
				kx, ks, kn, kb, kf := op.kRows(o, n, sy, sz)
				pc, ps, pn, pb, pf := pRows(rd, o, n, sy, sz)
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

// Residual computes r = rhs − A·u over b.
func (op *Operator3D) Residual(pool *par.Pool, b grid.Bounds3D, u, rhs, r *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	sy, sz := op.strides()
	ud, bd, rd := u.Data, rhs.Data, r.Data
	n := b.X1 - b.X0
	pool.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				o := g.Index(b.X0, j, k)
				kx, ks, kn, kb, kf := op.kRows(o, n, sy, sz)
				uc, us, un, ub, uf := pRows(ud, o, n, sy, sz)
				rs := rd[o : o+n : o+n]
				applyRow(kx, ks, kn, kb, kf, uc, us, un, ub, uf, rs)
				for i, v := range bd[o : o+n] {
					rs[i] = v - rs[i]
				}
			}
		}
	})
}

// Diagonal writes diag(A) over b into d. The stencil needs the face
// coefficients one cell beyond each cell, so b must stay one cell inside
// the padded region.
func (op *Operator3D) Diagonal(pool *par.Pool, b grid.Bounds3D, d *grid.Field3D) {
	op.diagonal(pool, b, d, false)
}

// InvDiagonal writes the reciprocal of diag(A) over b into d: the
// point-Jacobi preconditioner, in the same pass.
func (op *Operator3D) InvDiagonal(pool *par.Pool, b grid.Bounds3D, d *grid.Field3D) {
	op.diagonal(pool, b, d, true)
}

func (op *Operator3D) diagonal(pool *par.Pool, b grid.Bounds3D, d *grid.Field3D, inv bool) {
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

// Package stencil implements TeaLeaf's matrix-free linear operator.
//
// The implicit backward-Euler discretisation of the linear heat conduction
// equation on a regular grid produces, per time step, the SPD system
//
//	A u = u⁰,   A = I + Δt·L,
//
// where L is the 5-point (2D) or 7-point (3D) finite-difference diffusion
// operator. A is never assembled: only the face conduction coefficient
// arrays Kx, Ky (and Kz) are stored, and w = A·p is computed directly from
// the mesh exactly as in Listing 1 of the paper:
//
//	w(j,k) = (1 + (Ky(j,k+1)+Ky(j,k)) + (Kx(j+1,k)+Kx(j,k)))·p(j,k)
//	       − (Ky(j,k+1)·p(j,k+1) + Ky(j,k)·p(j,k−1))
//	       − (Kx(j+1,k)·p(j+1,k) + Kx(j,k)·p(j−1,k))
//
// The diagonal is one plus the sum of the off-diagonal coefficients on the
// row, making A strictly diagonally dominant and hence SPD.
package stencil

import (
	"fmt"
	"math"
	"sync"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/simd"
)

// Coefficient selects how the conduction coefficient is derived from the
// cell-centred density, matching TeaLeaf's tl_coefficient input options.
type Coefficient int

const (
	// Conductivity uses w = ρ: conduction proportional to density.
	Conductivity Coefficient = iota + 1
	// RecipConductivity uses w = 1/ρ: low-density material conducts
	// faster — the crooked-pipe configuration, where the evacuated pipe
	// transports heat ahead of the dense wall material.
	RecipConductivity
)

func (c Coefficient) String() string {
	switch c {
	case Conductivity:
		return "conductivity=density"
	case RecipConductivity:
		return "conductivity=1/density"
	}
	return fmt.Sprintf("coefficient(%d)", int(c))
}

// PhysicalSides records which sides of a (sub-)grid lie on the physical
// domain boundary, where the zero-flux condition zeroes the face
// coefficients. A rank interior to the process grid has none.
type PhysicalSides struct {
	Left, Right, Down, Up bool
}

// AllPhysical is the single-rank / global-grid case.
var AllPhysical = PhysicalSides{Left: true, Right: true, Down: true, Up: true}

// Operator2D is the matrix-free 2D operator: face coefficient fields on
// the same padded layout as the solution fields. Kx(j,k) couples cells
// (j−1,k)↔(j,k); Ky(j,k) couples (j,k−1)↔(j,k).
type Operator2D struct {
	Grid   *grid.Grid2D
	Kx, Ky *grid.Field2D
	// Rx, Ry are the Δt/Δx², Δt/Δy² scalings baked into Kx, Ky.
	Rx, Ry float64
}

// BuildOperator2D derives the face coefficients from the cell-centred
// density. The density field must have valid halo values wherever the
// operator will be applied (reflected on physical sides, exchanged across
// rank boundaries): coefficients are computed over the whole padded
// region so the matrix-powers kernel can run on extended bounds.
//
// The face coefficient is the harmonic-mean construction TeaLeaf uses:
//
//	Kx(j,k) = rx · (w(j−1,k)+w(j,k)) / (2·w(j−1,k)·w(j,k))
//
// with w the per-cell conduction coefficient, then faces on the physical
// boundary are zeroed (zero-flux boundary condition).
func BuildOperator2D(pool *par.Pool, density *grid.Field2D, dt float64, coef Coefficient, phys PhysicalSides) (*Operator2D, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("stencil: dt = %v must be positive and finite", dt)
	}
	if coef != Conductivity && coef != RecipConductivity {
		return nil, fmt.Errorf("stencil: unknown coefficient mode %d", int(coef))
	}
	g := density.Grid
	op := &Operator2D{
		Grid: g,
		Kx:   grid.NewField2D(g),
		Ky:   grid.NewField2D(g),
		Rx:   dt / (g.DX * g.DX),
		Ry:   dt / (g.DY * g.DY),
	}

	// Face coefficients wherever both adjacent cells are addressable:
	// rows and columns from −h+1. Each band rolls two padded rows of the
	// per-cell coefficient w (rows k−1 and k) through its rows, so every
	// padded row of density passes through some band and is checked.
	h := g.Halo
	s := g.Stride()
	recip := coef == RecipConductivity
	rho, kx, ky := density.Data, op.Kx.Data, op.Ky.Data
	bad := pool.ForReduce(-h+1, g.NY+h, func(k0, k1 int) float64 {
		below, cur := make([]float64, s), make([]float64, s)
		o := g.Index(-h, k0-1)
		n := coefRow(below, rho[o:o+s], recip)
		for k := k0; k < k1; k++ {
			o += s
			n += coefRow(cur, rho[o:o+s], recip)
			faceRow2D(kx[o:o+s], ky[o:o+s], below, cur, op.Rx, op.Ry)
			below, cur = cur, below
		}
		return n
	})
	if bad > 0 {
		return nil, fmt.Errorf("stencil: non-positive or NaN density encountered")
	}

	// Zero-flux physical boundaries: no conduction through outer faces.
	if phys.Left {
		for k := -h; k < g.NY+h; k++ {
			for j := -h; j <= 0; j++ {
				op.Kx.Set(j, k, 0)
			}
		}
	}
	if phys.Right {
		for k := -h; k < g.NY+h; k++ {
			for j := g.NX; j < g.NX+h; j++ {
				op.Kx.Set(j, k, 0)
			}
		}
	}
	if phys.Down {
		for j := -h; j < g.NX+h; j++ {
			for k := -h; k <= 0; k++ {
				op.Ky.Set(j, k, 0)
			}
		}
	}
	if phys.Up {
		for j := -h; j < g.NX+h; j++ {
			for k := g.NY; k < g.NY+h; k++ {
				op.Ky.Set(j, k, 0)
			}
		}
	}
	return op, nil
}

// coefRow writes the per-cell conduction coefficient w of one padded row
// of density (ρ, or 1/ρ under RecipConductivity) and returns how many of
// its densities are non-positive or NaN.
func coefRow(w, rho []float64, recip bool) float64 {
	rho = rho[:len(w)]
	var bad float64
	for i, r := range rho {
		if r <= 0 || math.IsNaN(r) {
			bad++
		}
		if recip {
			w[i] = 1 / r
		} else {
			w[i] = r
		}
	}
	return bad
}

// faceRow2D writes one padded row of the 2D face coefficients from the
// coefficient rows cur (this row) and below (row k−1), every cell but
// the first, whose west neighbour is not addressable:
//
//	Kx = rx·(w(j−1)+w(j)) / (2·w(j−1)·w(j)),  Ky likewise with w(k−1).
func faceRow2D(kx, ky, below, cur []float64, rx, ry float64) {
	n := len(cur)
	kx, ky, below = kx[:n], ky[:n], below[:n]
	for j := 1; j < n; j++ {
		wl, wc, wd := cur[j-1], cur[j], below[j]
		kx[j] = rx * (wl + wc) / (2 * wl * wc)
		ky[j] = ry * (wd + wc) / (2 * wd * wc)
	}
}

// stencilRows bundles the re-sliced rows the 5-point kernels read for one
// grid row k over columns [b.X0, b.X1): face coefficients, and the centre
// row of p extended one cell each side (ps[j] = p(X0+j−1), ps[j+1] =
// centre, ps[j+2] = east) plus the north/south rows. The three-index
// re-slices let the compiler hoist every bounds check out of the j loop.
type stencilRows struct {
	kxs      []float64 // kxs[j] = Kx(X0+j), kxs[j+1] = Kx(X0+j+1)
	kyn, kys []float64 // north/south face Ky rows
	pn, pso  []float64 // north/south p rows
	pc       []float64 // centre p row, extended [X0-1, X1+1)
}

func sliceStencilRows(g *grid.Grid2D, b grid.Bounds, kx, ky, p []float64, k int) stencilRows {
	s := g.Stride()
	o := g.Index(b.X0, k)
	n := b.X1 - b.X0
	return stencilRows{
		kxs: kx[o : o+n+1],
		kyn: ky[o+s : o+s+n],
		kys: ky[o : o+n],
		pn:  p[o+s : o+s+n],
		pso: p[o-s : o-s+n],
		pc:  p[o-1 : o+n+1],
	}
}

// Apply computes w = A·p over the cells of b. p must have valid values one
// cell beyond b on every side (halo-exchanged, reflected, or inside the
// padded region covered by a deeper exchange).
func (op *Operator2D) Apply(pool *par.Pool, b grid.Bounds, p, w *grid.Field2D) {
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

// ApplyDot is Listing 1 exactly: w = A·p fused with the dot product
// pw = p·w in a single pass over b. The inner loop is the hottest in the
// whole solver, so it is written with local re-sliced rows (bounds checks
// hoisted) and 4-way unrolling.
func (op *Operator2D) ApplyDot(pool *par.Pool, b grid.Bounds, p, w *grid.Field2D) float64 {
	if b.Empty() {
		return 0
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	pd, wd := p.Data, w.Data
	return pool.ForReduceN(1, b.Y0, b.Y1, applyDotBody(g, b, s, kx, ky, pd, wd))[0]
}

// applyDotBody is ApplyDot's band body: one applyDotRow5 leaf per row,
// the band's four p·w lanes folded into acc[0].
func applyDotBody(g *grid.Grid2D, b grid.Bounds, s int, kx, ky, pd, wd []float64) func(k0, k1 int, acc []float64) {
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

// The 2D row leaves below take one row of n cells as the face
// coefficient row kxs and the centre value row pc extended one cell each
// side (kxs[j], kxs[j+1] are cell j's west and east faces; pc[j], pc[j+1],
// pc[j+2] its west, centre and east values), the north/south face and
// value rows, and the output row, whose length is n. Each has a Go form
// and, behind simd.AVX2, an assembly form (leaves_amd64.s) that computes
// the same bits; see DESIGN.md, "AVX2 row leaves".

// applyDotRow5 is applyDotBody's row leaf: w = A·p over the row, with
// p·w accumulated in four lanes — cell j of each aligned group of four
// into lane j mod 4, the cells past the last full group into lane 0.
func applyDotRow5(kxs, kyn, kys, pn, pso, pc, ws []float64, pw *[4]float64) {
	if simd.AVX2 {
		applyDotRow5AVX2(kxs, kyn, kys, pn, pso, pc, ws, pw)
		return
	}
	applyDotRow5Go(kxs, kyn, kys, pn, pso, pc, ws, pw)
}

func applyDotRow5Go(kxs, kyn, kys, pn, pso, pc, ws []float64, pw *[4]float64) {
	n := len(ws)
	kxs, kyn, kys, pn, pso, pc = kxs[:n+1], kyn[:n], kys[:n], pn[:n], pso[:n], pc[:n+2]
	pw0, pw1, pw2, pw3 := pw[0], pw[1], pw[2], pw[3]
	j := 0
	for ; j+3 < n; j += 4 {
		pc0, pc1, pc2, pc3 := pc[j+1], pc[j+2], pc[j+3], pc[j+4]
		v0 := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc0 -
			(kyn[j]*pn[j] + kys[j]*pso[j]) -
			(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
		v1 := (1+(kyn[j+1]+kys[j+1])+(kxs[j+2]+kxs[j+1]))*pc1 -
			(kyn[j+1]*pn[j+1] + kys[j+1]*pso[j+1]) -
			(kxs[j+2]*pc[j+3] + kxs[j+1]*pc[j+1])
		v2 := (1+(kyn[j+2]+kys[j+2])+(kxs[j+3]+kxs[j+2]))*pc2 -
			(kyn[j+2]*pn[j+2] + kys[j+2]*pso[j+2]) -
			(kxs[j+3]*pc[j+4] + kxs[j+2]*pc[j+2])
		v3 := (1+(kyn[j+3]+kys[j+3])+(kxs[j+4]+kxs[j+3]))*pc3 -
			(kyn[j+3]*pn[j+3] + kys[j+3]*pso[j+3]) -
			(kxs[j+4]*pc[j+5] + kxs[j+3]*pc[j+3])
		ws[j], ws[j+1], ws[j+2], ws[j+3] = v0, v1, v2, v3
		pw0 += pc0 * v0
		pw1 += pc1 * v1
		pw2 += pc2 * v2
		pw3 += pc3 * v3
	}
	for ; j < n; j++ {
		pc0 := pc[j+1]
		v := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc0 -
			(kyn[j]*pn[j] + kys[j]*pso[j]) -
			(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
		ws[j] = v
		pw0 += pc0 * v
	}
	pw[0], pw[1], pw[2], pw[3] = pw0, pw1, pw2, pw3
}

// ApplyDot2 computes w = A·p fused with the two dot products p·w and w·w
// in one sweep — the §VII "one reduction" building block for pipelined
// Krylov variants, and a free divergence sentinel (w·w blowing up flags a
// breakdown one iteration earlier than p·w alone). The body mirrors
// ApplyDot — rows hoisted into local slices, 4-way unroll — rather than
// going through the sliceStencilRows struct: the struct-member indirection
// defeats the compiler's bounds-check hoisting in this loop.
func (op *Operator2D) ApplyDot2(pool *par.Pool, b grid.Bounds, p, w *grid.Field2D) (pw, ww float64) {
	if b.Empty() {
		return 0, 0
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	pd, wd := p.Data, w.Data
	acc := pool.ForReduceN(2, b.Y0, b.Y1, func(k0, k1 int, acc []float64) {
		n := b.X1 - b.X0
		var pw0, pw1, pw2, pw3 float64
		var ww0, ww1, ww2, ww3 float64
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
				pc0, pc1, pc2, pc3 := pc[j+1], pc[j+2], pc[j+3], pc[j+4]
				v0 := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc0 -
					(kyn[j]*pn[j] + kys[j]*pso[j]) -
					(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
				v1 := (1+(kyn[j+1]+kys[j+1])+(kxs[j+2]+kxs[j+1]))*pc1 -
					(kyn[j+1]*pn[j+1] + kys[j+1]*pso[j+1]) -
					(kxs[j+2]*pc[j+3] + kxs[j+1]*pc[j+1])
				v2 := (1+(kyn[j+2]+kys[j+2])+(kxs[j+3]+kxs[j+2]))*pc2 -
					(kyn[j+2]*pn[j+2] + kys[j+2]*pso[j+2]) -
					(kxs[j+3]*pc[j+4] + kxs[j+2]*pc[j+2])
				v3 := (1+(kyn[j+3]+kys[j+3])+(kxs[j+4]+kxs[j+3]))*pc3 -
					(kyn[j+3]*pn[j+3] + kys[j+3]*pso[j+3]) -
					(kxs[j+4]*pc[j+5] + kxs[j+3]*pc[j+3])
				ws[j], ws[j+1], ws[j+2], ws[j+3] = v0, v1, v2, v3
				pw0 += pc0 * v0
				ww0 += v0 * v0
				pw1 += pc1 * v1
				ww1 += v1 * v1
				pw2 += pc2 * v2
				ww2 += v2 * v2
				pw3 += pc3 * v3
				ww3 += v3 * v3
			}
			for ; j < n; j++ {
				pc0 := pc[j+1]
				v := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc0 -
					(kyn[j]*pn[j] + kys[j]*pso[j]) -
					(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
				ws[j] = v
				pw0 += pc0 * v
				ww0 += v * v
			}
		}
		acc[0] += (pw0 + pw1) + (pw2 + pw3)
		acc[1] += (ww0 + ww1) + (ww2 + ww3)
	})
	return acc[0], acc[1]
}

// ApplyPreDot is the matvec pass of the fused single-reduction CG: with
// u = minv ⊙ r the (folded diagonal-)preconditioned residual, it computes
// w = A·u and returns uw = Σ u·w in one sweep, never materialising u.
// r (and minv) must be valid one cell beyond b on every side. nil minv
// selects the identity (u = r), reducing to ApplyDot.
func (op *Operator2D) ApplyPreDot(pool *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D) float64 {
	if minv == nil {
		return op.ApplyDot(pool, b, r, w)
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
	return pool.ForReduceN(1, b.Y0, b.Y1, applyPreDotBody(g, b, s, kx, ky, md, rd, wd))[0]
}

// windowPool recycles the u = minv ⊙ r window buffers of the 2D and 3D
// ApplyPreDot band bodies, so a sweep allocates nothing once every
// worker has run a band: a body takes a buffer for the duration of one
// band and hands it back.
var windowPool sync.Pool

// getWindow returns a window buffer of n values (contents arbitrary: the
// bodies fill every cell they read).
func getWindow(n int) *[]float64 {
	if buf, _ := windowPool.Get().(*[]float64); buf != nil && cap(*buf) >= n {
		*buf = (*buf)[:n]
		return buf
	}
	buf := make([]float64, n)
	return &buf
}

func putWindow(buf *[]float64) { windowPool.Put(buf) }

// fillWindowRow writes one window row of u: dst = ms ⊙ rs.
func fillWindowRow(dst, ms, rs []float64) {
	n := len(dst)
	ms, rs = ms[:n], rs[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		dst[j] = ms[j] * rs[j]
		dst[j+1] = ms[j+1] * rs[j+1]
		dst[j+2] = ms[j+2] * rs[j+2]
		dst[j+3] = ms[j+3] * rs[j+3]
	}
	for ; j < n; j++ {
		dst[j] = ms[j] * rs[j]
	}
}

// applyPreDotBody is ApplyPreDot's band body: a rolling three-row window
// of u = minv ⊙ r feeding one stencil row per grid row.
func applyPreDotBody(g *grid.Grid2D, b grid.Bounds, s int, kx, ky, md, rd, wd []float64) func(k0, k1 int, acc []float64) {
	return func(k0, k1 int, acc []float64) {
		n := b.X1 - b.X0
		width := n + 2
		buf := getWindow(3 * width)
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
		putWindow(buf)
	}
}

// applyPreDotRow5 is applyPreDotBody's row leaf: w = A·u over the row for
// the window rows un, us, uc of u, with u·w accumulated in two lanes —
// even cells into lane 0, odd cells into lane 1, an odd row's last cell
// into lane 0.
func applyPreDotRow5(kxs, kyn, kys, un, us, uc, ws []float64, uw *[2]float64) {
	if simd.AVX2 {
		applyPreDotRow5AVX2(kxs, kyn, kys, un, us, uc, ws, uw)
		return
	}
	applyPreDotRow5Go(kxs, kyn, kys, un, us, uc, ws, uw)
}

func applyPreDotRow5Go(kxs, kyn, kys, un, us, uc, ws []float64, uw *[2]float64) {
	n := len(ws)
	kxs, kyn, kys, un, us, uc = kxs[:n+1], kyn[:n], kys[:n], un[:n], us[:n], uc[:n+2]
	uw0, uw1 := uw[0], uw[1]
	j := 0
	for ; j+1 < n; j += 2 {
		uc0 := uc[j+1]
		v0 := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*uc0 -
			(kyn[j]*un[j] + kys[j]*us[j]) -
			(kxs[j+1]*uc[j+2] + kxs[j]*uc[j])
		ws[j] = v0
		uw0 += uc0 * v0
		uc1 := uc[j+2]
		v1 := (1+(kyn[j+1]+kys[j+1])+(kxs[j+2]+kxs[j+1]))*uc1 -
			(kyn[j+1]*un[j+1] + kys[j+1]*us[j+1]) -
			(kxs[j+2]*uc[j+3] + kxs[j+1]*uc[j+1])
		ws[j+1] = v1
		uw1 += uc1 * v1
	}
	for ; j < n; j++ {
		uc0 := uc[j+1]
		v := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*uc0 -
			(kyn[j]*un[j] + kys[j]*us[j]) -
			(kxs[j+1]*uc[j+2] + kxs[j]*uc[j])
		ws[j] = v
		uw0 += uc0 * v
	}
	uw[0], uw[1] = uw0, uw1
}

// ApplyPreDotInit is ApplyPreDot extended with the two extra dot products
// the fused CG loop needs to start up: it returns (γ, δ, rr) =
// (Σ r·u, Σ u·w, Σ r·r) for u = minv ⊙ r, w = A·u, in one sweep. It runs
// once per solve, so it trades a little per-element work for not needing
// separate Dot passes before the first iteration.
func (op *Operator2D) ApplyPreDotInit(pool *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D) (gamma, delta, rr float64) {
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
			rrw := sliceStencilRows(g, tb, kx, ky, rd, k)
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

// Residual computes r = rhs − A·u over b.
func (op *Operator2D) Residual(pool *par.Pool, b grid.Bounds, u, rhs, r *grid.Field2D) {
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

// Diagonal writes the matrix diagonal 1 + ΣK over b into d.
func (op *Operator2D) Diagonal(pool *par.Pool, b grid.Bounds, d *grid.Field2D) {
	op.diagonal(pool, b, d, false)
}

// InvDiagonal writes the reciprocal of the diagonal over b into d: the
// point-Jacobi preconditioner, in the same pass.
func (op *Operator2D) InvDiagonal(pool *par.Pool, b grid.Bounds, d *grid.Field2D) {
	op.diagonal(pool, b, d, true)
}

func (op *Operator2D) diagonal(pool *par.Pool, b grid.Bounds, d *grid.Field2D, inv bool) {
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

// RowSumCheck returns the maximum |row sum − 1| over b when every face
// coefficient interior to b's one-cell neighbourhood pairs up: for the
// global operator the off-diagonal entries cancel the diagonal excess, so
// row sums are exactly 1 (A·1 = 1). Used by tests and sanity checks.
func (op *Operator2D) RowSumCheck(pool *par.Pool, b grid.Bounds) float64 {
	g := op.Grid
	ones := grid.NewField2D(g)
	ones.Fill(1)
	w := grid.NewField2D(g)
	op.Apply(pool, b, ones, w)
	var worst float64
	for k := b.Y0; k < b.Y1; k++ {
		for j := b.X0; j < b.X1; j++ {
			if d := math.Abs(w.At(j, k) - 1); d > worst {
				worst = d
			}
		}
	}
	return worst
}

package stencil

import (
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
)

// This file is the fused (Chronopoulos–Gear) CG engine's whole iteration
// body as one pass over the grid: the vector step of kernels.FusedCGStep
// and the matvec of ApplyPreDot, with the matvec one row of the walker's
// outer index (a y-row in 2D, a z-plane in 3D) behind the step. Row k's
// matvec reads r on rows k−1..k+1, so once row k+1 has been stepped every
// input of row k is final; r, w (and the folded diagonal) then pass
// through cache once per iteration instead of twice.
//
// Every cell is computed by the expressions of FusedCGStep followed by
// ApplyPreDot, operand for operand, and the dots keep their lanes and
// their fold: each band accumulates its step lanes and its matvec lanes
// over its own interior rows in row order, and the bands' partials fold
// in band order (par.Pool.ForBandsReduceN, the ForReduceN split of the
// interior's outer axis). With several workers the rows next to an
// internal band cut are stepped first, in a region of their own, without
// their dots; the band that owns such a row later re-reads its stored r
// into the step lanes (kernels.CGStepLanes.Dots) at the point of its walk
// where it would have stepped it. Every matvec next to a cut therefore
// reads final r, and no band writes a row another band reads.

// CGIter runs one fused-CG iteration body in one pass over the interior:
//
//	s = w + β·s;  r −= α·s;  p = (minv ⊙ r_old) + β·p;  x += α·p
//
// with the dots γ = Σ r·(minv ⊙ r), rr = Σ r·r of the new r
// (kernels.FusedCGStep); then w = A·u, u = minv ⊙ r, with δ = Σ u·w
// (ApplyPreDot). nil minv is the identity.
//
// The matvec needs r's new values one cell beyond the interior. CGIter
// is the pass of a grid whose every side is physical: it writes r's
// depth-1 mirror halo on every side as it steps the rows next to it, as
// the communicator's reflection would, so a single-rank iteration needs
// no exchange between its two halves.
//
// Two per-row callbacks let the deflation projector ride the pass, each
// called from whichever worker does the row's work. pre, when non-nil,
// is called once for each interior row y just before the step first
// reads w there; a non-nil row it returns holds a λ for each of the row's
// cells, which the step takes off w in registers, s = (w − λ) + β·s
// (kernels.CGStepLanes.CGStepSRL), leaving w as pre left it. The
// projector applies its pending correction w −= A·W·λ that way: the
// block-face terms to the row in pre, λ_c in the step. rows, when
// non-nil, is called once for each interior row y as soon as w's cells
// on it are final (the projector takes its restriction sums there).
func (op *Operator2D) CGIter(pool *par.Pool, minv, r, w *grid.Field2D, beta, alpha float64, p, s, x *grid.Field2D, pre func(y int) []float64, rows func(y int)) (gamma, rr, delta float64) {
	return (&cgIter{s: op.sten(), in: op.Grid.Rows(op.Grid.Interior()),
		md: minv.DataOrNil(), rd: r.Data, wd: w.Data, pd: p.Data, sd: s.Data, xd: x.Data,
		beta: beta, alpha: alpha, pre: grid.RowSliceFunc2D(pre), rows: grid.RowFunc2D(rows)}).run(pool)
}

// CGIter is the 3D one-pass fused-CG iteration body — see
// Operator2D.CGIter. The matvec lags the step by one z-plane; pre and
// rows are called with (j, k) for each interior row.
func (op *Operator3D) CGIter(pool *par.Pool, minv, r, w *grid.Field3D, beta, alpha float64, p, s, x *grid.Field3D, pre func(j, k int) []float64, rows func(j, k int)) (gamma, rr, delta float64) {
	return (&cgIter{s: op.sten(), in: op.Grid.Rows(op.Grid.Interior()),
		md: minv.DataOrNil(), rd: r.Data, wd: w.Data, pd: p.Data, sd: s.Data, xd: x.Data,
		beta: beta, alpha: alpha, pre: pre, rows: rows}).run(pool)
}

// cgIter is one CGIter call: its walker over the interior, fields and
// scalars.
type cgIter struct {
	s                      sten
	in                     grid.Rows
	md, rd, wd, pd, sd, xd []float64
	beta, alpha            float64
	pre                    func(j, k int) []float64
	rows                   func(j, k int)
}

// run is the pass over the interior's outer axis; it returns (γ, rr, δ).
func (c *cgIter) run(pool *par.Pool) (gamma, rr, delta float64) {
	acc := pool.ForBandsReduceN(3, c.in.K0, c.in.K1, c.edge, c.band)
	return acc[0], acc[1], acc[2]
}

// edge steps a row next to a band cut, its dots left for the owner.
func (c *cgIter) edge(k int) { c.step(k, nil) }

// band walks rows [b0, b1) of the interior, stepping row k+1 before the
// matvec of row k, and adds its (γ, rr, δ) partials to acc.
func (c *cgIter) band(b0, b1 int, acc []float64) {
	lo, hi := c.in.K0, c.in.K1
	var l kernels.CGStepLanes
	next := b0
	stepTo := func(k int) {
		for ; next <= k && next < b1; next++ {
			if (next == b0 && b0 != lo) || (next == b1-1 && b1 != hi) {
				c.dots(next, &l)
			} else {
				c.step(next, &l)
			}
		}
	}
	var dl lanes
	var w window
	if c.md != nil {
		w = c.s.window(c.in, c.md, c.rd)
		defer w.put()
	}
	for k := b0; k < b1; k++ {
		stepTo(k + 1)
		if c.md != nil {
			if k == b0 {
				w.fill(w.back, k-1)
				w.fill(w.cur, k)
			}
			w.fill(w.front, k+1)
		}
		c.matvec(k, &dl, &w)
		if c.rows != nil {
			for j := c.in.J0; j < c.in.J1; j++ {
				c.rows(j, k)
			}
		}
		w.rotate()
	}
	l.Fold(c.md == nil, acc)
	acc[2] += dl.sum()
}

// step advances row k (see CGIter), each row after its pre callback and
// with the λ row it returns, its dots into l (discarded for a nil l),
// then writes the row's mirror halo.
func (c *cgIter) step(k int, l *kernels.CGStepLanes) {
	in := c.in
	var spare kernels.CGStepLanes
	if l == nil {
		l = &spare
	}
	n := in.N()
	for j := in.J0; j < in.J1; j++ {
		var lam []float64
		if c.pre != nil {
			lam = c.pre(j, k)
		}
		o := in.Off(j, k)
		var ms []float64
		if c.md != nil {
			ms = c.md[o : o+n]
		}
		rs := c.rd[o : o+n]
		kernels.CGStepPX(ms, rs, c.pd[o:o+n], c.xd[o:o+n], c.beta, c.alpha)
		l.CGStepSRL(ms, rs, c.wd[o:o+n], lam, c.sd[o:o+n], c.beta, c.alpha)
	}
	c.reflect(k)
}

// dots re-reads the stored r of row k's interior rows into l (a row
// edge stepped).
func (c *cgIter) dots(k int, l *kernels.CGStepLanes) {
	in := c.in
	n := in.N()
	for j := in.J0; j < in.J1; j++ {
		o := in.Off(j, k)
		var ms []float64
		if c.md != nil {
			ms = c.md[o : o+n]
		}
		l.Dots(ms, c.rd[o:o+n])
	}
}

// reflect writes the mirror halo of r that row k of the outer axis owns,
// as the field's ReflectHalos(1) would: the x-halo cells of its rows,
// then (3D) its y-halo rows spanning them, and for the first (last) row
// the whole row behind (in front), x-halo cells and (3D) y-halo rows
// included. In 2D the y sides are the outer axis's back and front.
func (c *cgIter) reflect(k int) {
	g, rd := c.in, c.rd
	nx := g.N()
	for j := g.J0; j < g.J1; j++ {
		o := g.Off(j, k)
		rd[o-1] = rd[o]
		rd[o+nx] = rd[o+nx-1]
	}
	// mirror copies row (j, k), x-halo cells included, to (j+dj, k+dk).
	mirror := func(j, dj, dk int) {
		o, d := g.Off(j, k)-1, g.Off(j+dj, k+dk)-1
		copy(rd[d:d+nx+2], rd[o:o+nx+2])
	}
	sur := c.s.surround()
	if sur > 0 {
		mirror(g.J0, -1, 0)
		mirror(g.J1-1, 1, 0)
	}
	plane := func(dk int) {
		for j := g.J0 - sur; j < g.J1+sur; j++ {
			mirror(j, 0, dk)
		}
	}
	if k == g.K0 {
		plane(-1)
	}
	if k == g.K1-1 {
		plane(1)
	}
}

// matvec computes w = A·u over row k of the interior, adding u·w to dl:
// from r itself (identity), or from the window w of u = minv ⊙ r.
func (c *cgIter) matvec(k int, dl *lanes, w *window) {
	in := c.in
	kind := preDotKind(c.md == nil)
	n := in.N()
	var v vals
	for j := in.J0; j < in.J1; j++ {
		o := in.Off(j, k)
		if c.md != nil {
			w.vals(&v, j, 0, n)
		} else {
			c.s.field(&v, c.rd, o, n)
		}
		c.s.dotRow(kind, o, &v, c.wd[o:o+n:o+n], dl)
	}
}

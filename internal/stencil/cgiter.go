package stencil

import (
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
)

// This file is the fused (Chronopoulos–Gear) CG engine's whole iteration
// body as one pass over the grid: the vector step of kernels.FusedCGStep
// and the matvec of ApplyPreDot, with the matvec one row (one z-plane in
// 3D) behind the step. Row k's matvec reads r on rows k−1..k+1, so once
// row k+1 has been stepped every input of row k is final; r, w (and the
// folded diagonal) then pass through cache once per iteration instead of
// twice.
//
// Every cell is computed by the expressions of FusedCGStep followed by
// ApplyPreDot, operand for operand, and the dots keep their lanes and
// their fold: each band accumulates its step lanes and its matvec lanes
// over its own interior rows in row order, and the bands' partials fold
// in band order (par.Pool.ForBandsReduceN, the untiled ForTilesReduceN
// split of the interior). With several workers the rows next to an
// internal band cut are stepped first, in a region of their own, without
// their dots; the band that owns such a row later re-reads its stored r
// into the step lanes (kernels.CGStepLanes.Dots) at the point of its walk
// where it would have stepped it. Every matvec next to a cut therefore
// reads final r, and no band writes a row another band reads. On a tiled
// pool, whose dots fold per tile, the interior runs as the two sweeps the
// pass replaces.

// CGIter runs one fused-CG iteration body in one pass: over sb
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
func (op *Operator2D) CGIter(pool *par.Pool, sb, mb, in grid.Bounds, mirror PhysicalSides, minv, r, w *grid.Field2D, beta, alpha float64, p, s, x *grid.Field2D, rows func(k int)) (gamma, rr, delta float64) {
	c := &cgIter2D{op: op, sb: sb, mb: mb, in: in, mirror: mirror,
		rd: r.Data, wd: w.Data, pd: p.Data, sd: s.Data, xd: x.Data,
		beta: beta, alpha: alpha, rows: rows}
	if minv != nil {
		c.md = minv.Data
	}
	if pool.Tiled() {
		gamma, rr = kernels.FusedCGStep(pool, in, minv, r, w, beta, alpha, p, s, x)
		c.ringsOnly = true
		var discard [3]float64
		c.band(in.Y0, in.Y1, discard[:])
		delta = op.ApplyPreDot(pool, in, minv, r, w)
		for k := in.Y0; rows != nil && k < in.Y1; k++ {
			rows(k)
		}
		return gamma, rr, delta
	}
	acc := pool.ForBandsReduceN(3, in.Y0, in.Y1, c.edge, c.band)
	return acc[0], acc[1], acc[2]
}

// cgIter2D is one CGIter call: its bounds, fields and scalars. With
// ringsOnly set (tiled pools) it skips the cells of in, which the two
// interior sweeps cover.
type cgIter2D struct {
	op                     *Operator2D
	sb, mb, in             grid.Bounds
	mirror                 PhysicalSides
	md, rd, wd, pd, sd, xd []float64
	beta, alpha            float64
	rows                   func(k int)
	ringsOnly              bool
}

// edge steps a row next to a band cut, its dots left for the owner.
func (c *cgIter2D) edge(k int) { c.step(k, nil) }

// band walks rows [b0, b1) of in — extended to sb's and mb's rows beyond
// in for the first and last band — stepping row k+1 before the matvec of
// row k, and adds its (γ, rr, δ) partials to acc.
func (c *cgIter2D) band(b0, b1 int, acc []float64) {
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
		buf := getWindow(3 * width)
		defer putWindow(buf)
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
		if c.rows != nil && !c.ringsOnly && k >= lo && k < hi {
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
func (c *cgIter2D) step(k int, l *kernels.CGStepLanes) {
	g := c.op.Grid
	sb, in := c.sb, c.in
	var spare kernels.CGStepLanes
	if l == nil {
		l = &spare
	}
	row := g.Index(sb.X0, k)
	a0, a1 := max(in.X0, sb.X0)-sb.X0, min(in.X1, sb.X1)-sb.X0
	rowRuns(sb.X1-sb.X0, a0, a1, k >= in.Y0 && k < in.Y1, func(off, n int, interior bool) {
		if n == 0 || (interior && c.ringsOnly) {
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
func (c *cgIter2D) dots(k int, l *kernels.CGStepLanes) {
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
func (c *cgIter2D) reflect(k int) {
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
func (c *cgIter2D) fill(dst []float64, k int) {
	o := c.op.Grid.Index(c.mb.X0-1, k)
	n := len(dst)
	fillWindowRow(dst, c.md[o:o+n:o+n], c.rd[o:o+n:o+n])
}

// matvec computes w = A·u over row k of mb, adding the interior run's
// u·w to pw (identity) or, through the window rows us, uc, un, to uw.
func (c *cgIter2D) matvec(k int, pw *[4]float64, uw *[2]float64, us, uc, un []float64) {
	g := c.op.Grid
	s := g.Stride()
	kx, ky, rd, wd := c.op.Kx.Data, c.op.Ky.Data, c.rd, c.wd
	mb, in := c.mb, c.in
	var spw [4]float64
	var suw [2]float64
	row := g.Index(mb.X0, k)
	a0, a1 := max(in.X0, mb.X0)-mb.X0, min(in.X1, mb.X1)-mb.X0
	rowRuns(mb.X1-mb.X0, a0, a1, k >= in.Y0 && k < in.Y1, func(off, n int, interior bool) {
		if n == 0 || (interior && c.ringsOnly) {
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

// CGIter is the 3D one-pass fused-CG iteration body — see
// Operator2D.CGIter. The matvec lags the step by one z-plane, through
// ApplyPreDot's three-plane window of u = minv ⊙ r; rows is called with
// (j, k) for each row of in.
func (op *Operator3D) CGIter(pool *par.Pool, sb, mb, in grid.Bounds3D, mirror PhysicalSides3D, minv, r, w *grid.Field3D, beta, alpha float64, p, s, x *grid.Field3D, rows func(j, k int)) (gamma, rr, delta float64) {
	c := &cgIter3D{op: op, sb: sb, mb: mb, in: in, mirror: mirror,
		rd: r.Data, wd: w.Data, pd: p.Data, sd: s.Data, xd: x.Data,
		beta: beta, alpha: alpha, rows: rows}
	if minv != nil {
		c.md = minv.Data
	}
	if pool.Tiled() {
		gamma, rr = kernels.FusedCGStep3D(pool, in, minv, r, w, beta, alpha, p, s, x)
		c.ringsOnly = true
		var discard [3]float64
		c.band(in.Z0, in.Z1, discard[:])
		delta = op.ApplyPreDot(pool, in, minv, r, w)
		for k := in.Z0; rows != nil && k < in.Z1; k++ {
			for j := in.Y0; j < in.Y1; j++ {
				rows(j, k)
			}
		}
		return gamma, rr, delta
	}
	acc := pool.ForBandsReduceN(3, in.Z0, in.Z1, c.edge, c.band)
	return acc[0], acc[1], acc[2]
}

// cgIter3D is one 3D CGIter call (see cgIter2D); its rows are z-planes.
type cgIter3D struct {
	op                     *Operator3D
	sb, mb, in             grid.Bounds3D
	mirror                 PhysicalSides3D
	md, rd, wd, pd, sd, xd []float64
	beta, alpha            float64
	rows                   func(j, k int)
	ringsOnly              bool
}

func (c *cgIter3D) edge(k int) { c.step(k, nil) }

// band is cgIter2D.band over z-planes.
func (c *cgIter3D) band(b0, b1 int, acc []float64) {
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
	var dl dot2Lanes
	var delta float64
	var ub, uc, uf []float64
	plane := (c.mb.X1 - c.mb.X0 + 2) * (c.mb.Y1 - c.mb.Y0 + 2)
	if c.md != nil {
		buf := getWindow(3 * plane)
		defer putWindow(buf)
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
		if c.rows != nil && !c.ringsOnly && k >= lo && k < hi {
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
func (c *cgIter3D) step(k int, l *kernels.CGStepLanes) {
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
			if n == 0 || (interior && c.ringsOnly) {
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
func (c *cgIter3D) dots(k int, l *kernels.CGStepLanes) {
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
func (c *cgIter3D) reflect(k int) {
	g, m, rd := c.op.Grid, c.mirror, c.rd
	if k < 0 || k >= g.NZ {
		return
	}
	sy, sz := c.op.strides()
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
func (c *cgIter3D) fill(dst []float64, k int) {
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
func (c *cgIter3D) matvec(k int, dl *dot2Lanes, delta *float64, ub, uc, uf []float64) {
	op, g := c.op, c.op.Grid
	sy, sz := op.strides()
	rd, wd := c.rd, c.wd
	mb, in := c.mb, c.in
	width := mb.X1 - mb.X0 + 2
	var spare dot2Lanes
	a0, a1 := max(in.X0, mb.X0)-mb.X0, min(in.X1, mb.X1)-mb.X0
	inZ := k >= in.Z0 && k < in.Z1
	for j := mb.Y0; j < mb.Y1; j++ {
		row := g.Index(mb.X0, j, k)
		rowRuns(mb.X1-mb.X0, a0, a1, inZ && j >= in.Y0 && j < in.Y1, func(off, n int, interior bool) {
			if n == 0 || (interior && c.ringsOnly) {
				return
			}
			o := row + off
			kx, ks, kn, kb, kf := op.kRows(o, n, sy, sz)
			if c.md == nil {
				lanes := &spare
				if interior {
					lanes = dl
				}
				pc, ps, pn, pb, pf := pRows(rd, o, n, sy, sz)
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

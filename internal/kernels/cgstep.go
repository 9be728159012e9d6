package kernels

import (
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/simd"
)

// FusedCGStep is the whole vector phase of a single-reduction
// (Chronopoulos–Gear) CG iteration in ONE sweep. Per cache-resident row
// it advances both direction recurrences and immediately applies the
// updates they feed, folding in the two dot products the next step
// scalars need,
//
//	p = (minv ⊙ r) + β·p;  x += α·p        (old r)
//	s = w + β·s;           r −= α·s;  γ = Σ r·(minv ⊙ r);  rr = Σ r·r
//
// with the dots taken on the freshly updated r. nil minv selects the
// identity, for which γ == rr. A nil x skips the solution update (a ring
// of extended bounds replicates a neighbour's cells, whose solution and
// dots are the neighbour's). The fused engine runs this step as a sweep
// of its own only beside a depth-1 rank neighbour; everywhere else
// stencil's CGIter runs its row bursts a row ahead of the matvec, and
// this sweep is that pass's bitwise oracle.
//
// Every cell is computed by the expressions of FusedCGDirections
// followed by FusedCGUpdate and the dots keep FusedCGUpdate's lanes and
// ForTilesReduceN fold, so p, s, x, r, γ and rr are bit-identical to the
// two-sweep form; the merged sweep just stops p and s being written to
// memory by one pass and streamed back by the next.
func FusedCGStep(pl *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D, beta, alpha float64, p, s, x *grid.Field2D) (gamma, rr float64) {
	if b.Empty() {
		return 0, 0
	}
	acc := pl.ForTilesReduceN(2, box(b), fusedCGStepBody(beta, alpha, minv, r, w, p, s, x))
	return acc[0], acc[1]
}

// fusedCGStepBody is FusedCGStep's tile body: the two row bursts per row
// of the tile, then the tile's (γ, rr) lanes folded into acc.
func fusedCGStepBody(beta, alpha float64, minv, r, w, p, s, x *grid.Field2D) func(t par.Tile, acc []float64) {
	g := r.Grid
	rd, wd, pd, sd := r.Data, w.Data, p.Data, s.Data
	var md, xd []float64
	if minv != nil {
		md = minv.Data
	}
	if x != nil {
		xd = x.Data
	}
	return func(t par.Tile, acc []float64) {
		tb := tileBounds(t)
		var l CGStepLanes
		for k := tb.Y0; k < tb.Y1; k++ {
			var ms, xs []float64
			if md != nil {
				ms = row(g, tb, md, k)
			}
			if xd != nil {
				xs = row(g, tb, xd, k)
			}
			rs := row(g, tb, rd, k)
			CGStepPX(ms, rs, row(g, tb, pd, k), xs, beta, alpha)
			l.CGStepSR(ms, rs, row(g, tb, wd, k), row(g, tb, sd, k), beta, alpha)
		}
		l.Fold(md == nil, acc)
	}
}

// FusedCGStep3D is the 3D merged single-reduction CG step over b — see
// FusedCGStep; the two share their row bursts.
func FusedCGStep3D(pl *par.Pool, b grid.Bounds3D, minv, r, w *grid.Field3D, beta, alpha float64, p, s, x *grid.Field3D) (gamma, rr float64) {
	if b.Empty() {
		return 0, 0
	}
	acc := pl.ForTilesReduceN(2, box3(b), fusedCGStepBody3D(beta, alpha, minv, r, w, p, s, x))
	return acc[0], acc[1]
}

// fusedCGStepBody3D is FusedCGStep3D's tile body (see fusedCGStepBody).
func fusedCGStepBody3D(beta, alpha float64, minv, r, w, p, s, x *grid.Field3D) func(t par.Tile, acc []float64) {
	g := r.Grid
	rd, wd, pd, sd := r.Data, w.Data, p.Data, s.Data
	var md, xd []float64
	if minv != nil {
		md = minv.Data
	}
	if x != nil {
		xd = x.Data
	}
	return func(t par.Tile, acc []float64) {
		tb := tileBounds3(t)
		var l CGStepLanes
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				var ms, xs []float64
				if md != nil {
					ms = row3(g, tb, md, j, k)
				}
				if xd != nil {
					xs = row3(g, tb, xd, j, k)
				}
				rs := row3(g, tb, rd, j, k)
				CGStepPX(ms, rs, row3(g, tb, pd, j, k), xs, beta, alpha)
				l.CGStepSR(ms, rs, row3(g, tb, wd, j, k), row3(g, tb, sd, j, k), beta, alpha)
			}
		}
		l.Fold(md == nil, acc)
	}
}

// CGStepPX is burst 1 of the merged step over one row: the p recurrence
// on the old r and the x update it feeds (skipped for a nil xs — ring
// rows, where the plain loops are fast enough). nil ms is the identity.
// Rows with an x update run as AVX2 assembly computing the same bits when
// simd.AVX2 is set (see DESIGN.md, "AVX2 row leaves"). It and CGStepSR are
// exported for stencil's one-pass CG iteration, which runs them row by
// row ahead of its matvec.
func CGStepPX(ms, rs, ps, xs []float64, beta, alpha float64) {
	if simd.AVX2 && xs != nil {
		cgStepPXAVX2(ms, rs, ps, xs, beta, alpha)
		return
	}
	cgStepPXGo(ms, rs, ps, xs, beta, alpha)
}

func cgStepPXGo(ms, rs, ps, xs []float64, beta, alpha float64) {
	n := len(ps)
	rs = rs[:n]
	switch {
	case xs == nil && ms == nil:
		for j := range ps {
			ps[j] = rs[j] + beta*ps[j]
		}
	case xs == nil:
		ms = ms[:n]
		for j := range ps {
			ps[j] = ms[j]*rs[j] + beta*ps[j]
		}
	case ms == nil:
		xs = xs[:n]
		j := 0
		for ; j+3 < n; j += 4 {
			p0 := rs[j] + beta*ps[j]
			ps[j] = p0
			xs[j] += alpha * p0
			p1 := rs[j+1] + beta*ps[j+1]
			ps[j+1] = p1
			xs[j+1] += alpha * p1
			p2 := rs[j+2] + beta*ps[j+2]
			ps[j+2] = p2
			xs[j+2] += alpha * p2
			p3 := rs[j+3] + beta*ps[j+3]
			ps[j+3] = p3
			xs[j+3] += alpha * p3
		}
		for ; j < n; j++ {
			p0 := rs[j] + beta*ps[j]
			ps[j] = p0
			xs[j] += alpha * p0
		}
	default:
		ms, xs = ms[:n], xs[:n]
		j := 0
		for ; j+3 < n; j += 4 {
			p0 := ms[j]*rs[j] + beta*ps[j]
			ps[j] = p0
			xs[j] += alpha * p0
			p1 := ms[j+1]*rs[j+1] + beta*ps[j+1]
			ps[j+1] = p1
			xs[j+1] += alpha * p1
			p2 := ms[j+2]*rs[j+2] + beta*ps[j+2]
			ps[j+2] = p2
			xs[j+2] += alpha * p2
			p3 := ms[j+3]*rs[j+3] + beta*ps[j+3]
			ps[j+3] = p3
			xs[j+3] += alpha * p3
		}
		for ; j < n; j++ {
			p0 := ms[j]*rs[j] + beta*ps[j]
			ps[j] = p0
			xs[j] += alpha * p0
		}
	}
}

// CGStepLanes carries the merged step's dot partials across the rows of
// one tile: FusedCGUpdate's two lanes per dot, so the tile's γ and rr
// associate exactly as the two-sweep form's do. The assembly leaf reads
// and writes it as two pairs, (g0, g1) and (rr0, rr1).
type CGStepLanes struct{ g0, g1, rr0, rr1 float64 }

// CGStepSR is burst 2 of the merged step over one row: the s recurrence
// on the old w, the r update it feeds, and both dots against the fresh
// r still in registers — even cells into lane 0, odd cells into lane 1,
// an odd row's last cell into lane 0. nil ms is the identity (only rr
// accumulates). Runs as AVX2 assembly computing the same bits when
// simd.AVX2 is set.
func (l *CGStepLanes) CGStepSR(ms, rs, ws, ss []float64, beta, alpha float64) {
	if simd.AVX2 {
		cgStepSRAVX2(ms, rs, ws, ss, beta, alpha, l)
		return
	}
	l.cgStepSRGo(ms, rs, ws, ss, beta, alpha)
}

func (l *CGStepLanes) cgStepSRGo(ms, rs, ws, ss []float64, beta, alpha float64) {
	n := len(rs)
	ws, ss = ws[:n], ss[:n]
	g0, g1, rr0, rr1 := l.g0, l.g1, l.rr0, l.rr1
	j := 0
	if ms == nil {
		for ; j+1 < n; j += 2 {
			s0 := ws[j] + beta*ss[j]
			ss[j] = s0
			v0 := rs[j] - alpha*s0
			rs[j] = v0
			rr0 += v0 * v0
			s1 := ws[j+1] + beta*ss[j+1]
			ss[j+1] = s1
			v1 := rs[j+1] - alpha*s1
			rs[j+1] = v1
			rr1 += v1 * v1
		}
		for ; j < n; j++ {
			s0 := ws[j] + beta*ss[j]
			ss[j] = s0
			v := rs[j] - alpha*s0
			rs[j] = v
			rr0 += v * v
		}
	} else {
		ms = ms[:n]
		for ; j+1 < n; j += 2 {
			s0 := ws[j] + beta*ss[j]
			ss[j] = s0
			v0 := rs[j] - alpha*s0
			rs[j] = v0
			g0 += ms[j] * v0 * v0
			rr0 += v0 * v0
			s1 := ws[j+1] + beta*ss[j+1]
			ss[j+1] = s1
			v1 := rs[j+1] - alpha*s1
			rs[j+1] = v1
			g1 += ms[j+1] * v1 * v1
			rr1 += v1 * v1
		}
		for ; j < n; j++ {
			s0 := ws[j] + beta*ss[j]
			ss[j] = s0
			v := rs[j] - alpha*s0
			rs[j] = v
			g0 += ms[j] * v * v
			rr0 += v * v
		}
	}
	l.g0, l.g1, l.rr0, l.rr1 = g0, g1, rr0, rr1
}

// Dots adds the dot half of CGStepSR for a row whose r it has already
// updated: γ += m·r·r and rr += r·r on the stored r, into the same lanes in
// the same order, so a row stepped early (next to another worker's band)
// still lands its dots where CGStepSR would have. nil ms is the identity.
func (l *CGStepLanes) Dots(ms, rs []float64) {
	n := len(rs)
	g0, g1, rr0, rr1 := l.g0, l.g1, l.rr0, l.rr1
	j := 0
	if ms == nil {
		for ; j+1 < n; j += 2 {
			v0, v1 := rs[j], rs[j+1]
			rr0 += v0 * v0
			rr1 += v1 * v1
		}
		if j < n {
			v := rs[j]
			rr0 += v * v
		}
	} else {
		ms = ms[:n]
		for ; j+1 < n; j += 2 {
			v0, v1 := rs[j], rs[j+1]
			g0 += ms[j] * v0 * v0
			rr0 += v0 * v0
			g1 += ms[j+1] * v1 * v1
			rr1 += v1 * v1
		}
		if j < n {
			v := rs[j]
			g0 += ms[j] * v * v
			rr0 += v * v
		}
	}
	l.g0, l.g1, l.rr0, l.rr1 = g0, g1, rr0, rr1
}

// Fold adds the tile's (γ, rr) to acc; for the identity γ is rr.
func (l *CGStepLanes) Fold(identity bool, acc []float64) {
	rr := l.rr0 + l.rr1
	if identity {
		acc[0] += rr
	} else {
		acc[0] += l.g0 + l.g1
	}
	acc[1] += rr
}

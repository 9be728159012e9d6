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
// identity, for which γ == rr. The fused engine runs this step as a sweep
// of its own only beside a rank neighbour; everywhere else
// stencil's CGIter runs its row bursts a row ahead of the matvec, and
// this sweep is that pass's bitwise oracle.
//
// Every cell is computed by the expressions of FusedCGDirections
// followed by FusedCGUpdate and the dots keep FusedCGUpdate's lanes and
// band fold, so p, s, x, r, γ and rr are bit-identical to the two-sweep
// form; the merged sweep just stops p and s being written to memory by
// one pass and streamed back by the next.
func FusedCGStep(pl *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D, beta, alpha float64, p, s, x *grid.Field2D) (gamma, rr float64) {
	return FusedCGStepRows(pl, b, minv, r, w, beta, alpha, p, s, x, nil)
}

// FusedCGStepRows is FusedCGStep calling pre(y), when non-nil, once for
// each row y of b just before the step reads it, from the worker that
// steps the row. A non-nil row pre returns is λ for the row's cells of b,
// which the step takes off w in registers: s = (w − λ) + β·s (CGStepSRL).
// The deflation projector applies its pending correction that way — the
// face terms to w's row in the hook, the row of λ in the step — so the
// correction costs no pass over w of its own.
func FusedCGStepRows(pl *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D, beta, alpha float64, p, s, x *grid.Field2D, pre func(y int) []float64) (gamma, rr float64) {
	return fusedCGStep(pl, r.Grid.Rows(b), minv.DataOrNil(), r.Data, w.Data, beta, alpha, p.Data, s.Data, x.Data, grid.RowSliceFunc2D(pre))
}

// FusedCGStep3D is FusedCGStep over a 3D box.
func FusedCGStep3D(pl *par.Pool, b grid.Bounds3D, minv, r, w *grid.Field3D, beta, alpha float64, p, s, x *grid.Field3D) (gamma, rr float64) {
	return FusedCGStepRows3D(pl, b, minv, r, w, beta, alpha, p, s, x, nil)
}

// FusedCGStepRows3D is FusedCGStepRows over a 3D box, pre called with
// each row (j, k).
func FusedCGStepRows3D(pl *par.Pool, b grid.Bounds3D, minv, r, w *grid.Field3D, beta, alpha float64, p, s, x *grid.Field3D, pre func(j, k int) []float64) (gamma, rr float64) {
	return fusedCGStep(pl, r.Grid.Rows(b), minv.DataOrNil(), r.Data, w.Data, beta, alpha, p.Data, s.Data, x.Data, pre)
}

// fusedCGStep runs the two row bursts per row of each band, each row
// after its pre callback and with the λ row it returns, then folds the
// band's (γ, rr) lanes into acc.
func fusedCGStep(pl *par.Pool, b grid.Rows, md, rd, wd []float64, beta, alpha float64, pd, sd, xd []float64, pre func(j, k int) []float64) (gamma, rr float64) {
	if b.Empty() {
		return 0, 0
	}
	n := b.N()
	acc := pl.ForReduceN(2, b.K0, b.K1, func(k0, k1 int, acc []float64) {
		var l CGStepLanes
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				var ls []float64
				if pre != nil {
					ls = pre(j, k)
				}
				o := b.Off(j, k)
				var ms []float64
				if md != nil {
					ms = row(md, o, n)
				}
				rs := row(rd, o, n)
				CGStepPX(ms, rs, row(pd, o, n), row(xd, o, n), beta, alpha)
				l.CGStepSRL(ms, rs, row(wd, o, n), ls, row(sd, o, n), beta, alpha)
			}
		}
		l.Fold(md == nil, acc)
	})
	return acc[0], acc[1]
}

// CGStepPX is burst 1 of the merged step over one row: the p recurrence
// on the old r and the x update it feeds. nil ms is the identity. It runs
// as AVX2 assembly computing the same bits when simd.AVX2 is set (see
// DESIGN.md, "AVX2 row leaves"). It and CGStepSR are
// exported for stencil's one-pass CG iteration, which runs them row by
// row ahead of its matvec.
func CGStepPX(ms, rs, ps, xs []float64, beta, alpha float64) {
	if simd.AVX2 {
		cgStepPXAVX2(ms, rs, ps, xs, beta, alpha)
		return
	}
	cgStepPXGo(ms, rs, ps, xs, beta, alpha)
}

func cgStepPXGo(ms, rs, ps, xs []float64, beta, alpha float64) {
	n := len(ps)
	rs = rs[:n]
	switch {
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
// one band: FusedCGUpdate's two lanes per dot, so the band's γ and rr
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
	l.CGStepSRL(ms, rs, ws, nil, ss, beta, alpha)
}

// CGStepSRL is CGStepSR with a row ls of values taken off w in registers
// before the s recurrence: s = (w − λ) + β·s, w itself left as it is.
// The deflated CG step applies the λ_c of its pending correction this
// way, after the correction's face terms are in w, so every s holds the
// bits of the step on the corrected w. nil ls is CGStepSR.
func (l *CGStepLanes) CGStepSRL(ms, rs, ws, ls, ss []float64, beta, alpha float64) {
	if simd.AVX2 {
		cgStepSRAVX2(ms, rs, ws, ls, ss, beta, alpha, l)
		return
	}
	if ls != nil {
		l.cgStepSRLGo(ms, rs, ws, ls, ss, beta, alpha)
		return
	}
	l.cgStepSRGo(ms, rs, ws, ss, beta, alpha)
}

// cgStepSRLGo is cgStepSRGo with the row ls taken off w.
func (l *CGStepLanes) cgStepSRLGo(ms, rs, ws, ls, ss []float64, beta, alpha float64) {
	n := len(rs)
	ws, ls, ss = ws[:n], ls[:n], ss[:n]
	g0, g1, rr0, rr1 := l.g0, l.g1, l.rr0, l.rr1
	j := 0
	if ms == nil {
		for ; j+1 < n; j += 2 {
			s0 := (ws[j] - ls[j]) + beta*ss[j]
			ss[j] = s0
			v0 := rs[j] - alpha*s0
			rs[j] = v0
			rr0 += v0 * v0
			s1 := (ws[j+1] - ls[j+1]) + beta*ss[j+1]
			ss[j+1] = s1
			v1 := rs[j+1] - alpha*s1
			rs[j+1] = v1
			rr1 += v1 * v1
		}
		for ; j < n; j++ {
			s0 := (ws[j] - ls[j]) + beta*ss[j]
			ss[j] = s0
			v := rs[j] - alpha*s0
			rs[j] = v
			rr0 += v * v
		}
	} else {
		ms = ms[:n]
		for ; j+1 < n; j += 2 {
			s0 := (ws[j] - ls[j]) + beta*ss[j]
			ss[j] = s0
			v0 := rs[j] - alpha*s0
			rs[j] = v0
			g0 += ms[j] * v0 * v0
			rr0 += v0 * v0
			s1 := (ws[j+1] - ls[j+1]) + beta*ss[j+1]
			ss[j+1] = s1
			v1 := rs[j+1] - alpha*s1
			rs[j+1] = v1
			g1 += ms[j+1] * v1 * v1
			rr1 += v1 * v1
		}
		for ; j < n; j++ {
			s0 := (ws[j] - ls[j]) + beta*ss[j]
			ss[j] = s0
			v := rs[j] - alpha*s0
			rs[j] = v
			g0 += ms[j] * v * v
			rr0 += v * v
		}
	}
	l.g0, l.g1, l.rr0, l.rr1 = g0, g1, rr0, rr1
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

// Fold adds the band's (γ, rr) to acc; for the identity γ is rr.
func (l *CGStepLanes) Fold(identity bool, acc []float64) {
	rr := l.rr0 + l.rr1
	if identity {
		acc[0] += rr
	} else {
		acc[0] += l.g0 + l.g1
	}
	acc[1] += rr
}

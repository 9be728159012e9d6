package deflate

import (
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
)

// solveDeflatedCG runs deflated CG on A·u = rhs — the package's
// self-contained oracle, kept as the simplest executable statement of the
// algorithm (the production path composes the same projector into the
// solver package's CG engine, which runs CG and PPCG's outer iteration).
// It is rank-correct: halos flow through the communicator the projector
// was built with and every dot product is globally reduced. A coarse
// correction aligns the initial residual with the deflated subspace,
// every matvec is projected by P, and a final coarse correction recovers
// the exact solution. Returns (iterations, final relative residual,
// converged); a non-nil error reports a communicator failure.
func (d *Deflation) solveDeflatedCG(u, rhs *grid.Field2D, tol float64, maxIters int) (int, float64, bool, error) {
	g := d.op.Grid
	in := g.Interior()
	pool := d.pool
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIters <= 0 {
		maxIters = 10000
	}

	r := grid.NewField2D(g)
	w := grid.NewField2D(g)
	p := grid.NewField2D(g)

	residual := func() error {
		if err := d.c.Exchange(1, u); err != nil {
			return err
		}
		d.op.Residual(pool, in, u, rhs, r)
		return nil
	}
	if err := residual(); err != nil {
		return 0, 0, false, err
	}
	// Initial coarse correction: Wᵀ r = 0 afterwards.
	d.CoarseCorrect(r, u)
	if err := residual(); err != nil {
		return 0, 0, false, err
	}
	rr := d.c.AllReduceSum(kernels.Dot(pool, in, r, r))
	rr0 := rr
	if rr0 == 0 {
		return 0, 0, true, nil
	}
	kernels.Copy(pool, in, p, r)

	iters := 0
	for ; iters < maxIters; iters++ {
		if err := d.c.Exchange(1, p); err != nil {
			return iters, 0, false, err
		}
		d.op.Apply(pool, in, p, w)
		d.ProjectW(w) // w = P·A·p
		pw := d.c.AllReduceSum(kernels.Dot(pool, in, p, w))
		if pw <= 0 {
			break // P·A is only semi-definite outside the deflated space
		}
		alpha := rr / pw
		kernels.Axpy(pool, in, alpha, p, u)
		kernels.Axpy(pool, in, -alpha, w, r)
		rrNew := d.c.AllReduceSum(kernels.Dot(pool, in, r, r))
		if rrNew <= tol*tol*rr0 {
			rr = rrNew
			iters++
			break
		}
		beta := rrNew / rr
		rr = rrNew
		kernels.Xpay(pool, in, r, beta, p)
	}
	// Final coarse correction mops up the deflation-space component the
	// projected iteration cannot see.
	if err := residual(); err != nil {
		return iters, 0, false, err
	}
	d.CoarseCorrect(r, u)
	if err := residual(); err != nil {
		return iters, 0, false, err
	}
	rel := relNorm(d.c.AllReduceSum(kernels.Dot(pool, in, r, r)), rr0)
	return iters, rel, rel <= tol*10, nil // allow the projection round-off margin
}

func relNorm(rr, rr0 float64) float64 {
	if rr0 == 0 {
		return 0
	}
	return math.Sqrt(rr / rr0)
}

// projectRestricted is the projection the CG engine ran after its pass
// before the engine took the projection into its own sweeps and round:
// the fold of the row sums RestrictRow took, a reduction round of its
// own, the coarse solve and the correction sweep over the interior with
// the curvature dot (m⊙x)·(P·w) re-measured against the corrected w
// (correctDot). Kept as the oracle the row hand-off (RestrictRow,
// Restriction, SolveCoarse, CorrectRow) is held to, and as the parent
// form BenchmarkCGIterDeflated times.
func (p *projector) projectRestricted(w, m, x []float64) float64 {
	p.foldRows()
	p.solve(p.c.AllReduceSumN(p.cr))
	return p.correctDot(w, m, x)
}

// correctDot is correct returning Σ (m⊙x)·w over the corrected w (nil m
// = identity), each band's rows summed once corrected: the correction
// with its curvature dot, as the whole projection once ran it.
func (p *projector) correctDot(w, m, x []float64) float64 {
	lo, hi := p.outer(p.in)
	return p.pool.ForReduceN(1, lo, hi, func(k0, k1 int, acc []float64) {
		t := p.band(p.in, k0, k1)
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				p.correctRow(j, k, w)
			}
		}
		p.forRuns(t, func(o, i0, i1, _ int) {
			for i := o + i0; i < o+i1; i++ {
				z := x[i]
				if m != nil {
					z *= m[i]
				}
				acc[0] += z * w[i]
			}
		})
	})[0]
}

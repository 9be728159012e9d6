package solver

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// ROADMAP 6e for PPCG and Chebyshev: a non-finite globally reduced scalar
// ends the solve with an ErrBreakdown error at the iteration it first
// appears — not MaxIters × InnerSteps sweeps of NaN arithmetic later.

// withBlock returns o with jac_block on both problems when block is set:
// the preconditioner that does not fold, and so the one that drives the
// explicit-z branches of the CG, Chebyshev and PPCG loops.
func withBlock(o Options, block bool, p Problem, p3 Problem3D) Options {
	if block {
		o.Precond = precond.NewBlockJacobi(par.Serial, p.Op, 0)
		o.Precond3D = precond.NewBlockJacobi3D(par.Serial, p3.Op, 0)
	}
	return o
}

func wantBreakdown(t *testing.T, label string, res Result, err error) {
	t.Helper()
	if !errors.Is(err, ErrBreakdown) {
		t.Errorf("%s: error %v is not ErrBreakdown (result %+v)", label, err, res)
	}
	if res.Converged {
		t.Errorf("%s: reported converged", label)
	}
}

// ROADMAP 6d: a NaN or Inf in one right-hand-side cell ends a CG solve
// with ErrBreakdown at the startup reduction that first sees it, folded
// or with an explicit z (jac_block), 2D and 3D. An Inf input makes ‖r₀‖²
// and ‖b‖² both Inf, which would pass the startup "already solved" test.
func TestNonFiniteCGInputIsBreakdown(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, block := range []bool{false, true} {
			label := fmt.Sprintf("cg jac_block=%v rhs=%v", block, bad)
			p := buildProblem(t, 24, 20, 2, 3)
			p.RHS.Set(5, 7, bad)
			p3 := buildProblem3D(t, 8, 3)
			p3.RHS.Set(2, 3, 4, bad)
			o := withBlock(Options{Tol: 1e-10}, block, p, p3)
			res, err := SolveCG(p, o)
			wantBreakdown(t, label+" 2D", res, err)
			if res.Iterations != 0 {
				t.Errorf("%s 2D: ran %d iterations", label, res.Iterations)
			}

			res, err = SolveCG3D(p3, o)
			wantBreakdown(t, label+" 3D", res, err)
			if res.Iterations != 0 {
				t.Errorf("%s 3D: ran %d iterations", label, res.Iterations)
			}
		}
	}
}

// A NaN in one right-hand-side cell never gets past the bootstrap CG's
// startup reduction (see TestNonFiniteCGInputIsBreakdown).
func TestNonFiniteInputIsBreakdown(t *testing.T) {
	for _, kind := range []Kind{KindPPCG, KindCheby} {
		for _, block := range []bool{false, true} {
			p := buildProblem(t, 24, 20, 2, 3)
			p.RHS.Set(5, 7, math.NaN())
			p3 := buildProblem3D(t, 8, 3)
			p3.RHS.Set(2, 3, 4, math.NaN())
			o := withBlock(Options{Tol: 1e-10, EigenCGIters: 6, InnerSteps: 7}, block, p, p3)

			res, err := Solve(kind, p, o)
			wantBreakdown(t, string(kind)+" 2D", res, err)
			if res.Iterations > o.EigenCGIters || res.TotalInner != 0 {
				t.Errorf("%s 2D jac_block=%v: ran %d iterations, %d inner steps on NaN input", kind, block, res.Iterations, res.TotalInner)
			}

			res, err = Solve3D(kind, p3, o)
			wantBreakdown(t, string(kind)+" 3D", res, err)
			if res.Iterations > o.EigenCGIters || res.TotalInner != 0 {
				t.Errorf("%s 3D jac_block=%v: ran %d iterations, %d inner steps on NaN input", kind, block, res.Iterations, res.TotalInner)
			}
		}
	}
}

// A one-iteration bootstrap pins the whole spectrum to a single Ritz
// value; a long polynomial built on it amplifies every other mode until
// the iterate overflows. PPCG sees that in the first outer scalar after
// the inner solve — on both ranks of a split run, which exit together
// (the scalars are post-reduction) instead of one hanging in a
// collective the other never posts.
func TestOverflowingPolynomialIsBreakdown(t *testing.T) {
	const inner = 1500
	for _, block := range []bool{false, true} {
		p := buildProblem(t, 24, 20, 2, 3)
		p3 := buildProblem3D(t, 8, 3)
		if block {
			// Block Jacobi keeps these problems' spectra within twice the
			// one-step Ritz value, where the polynomial still damps every
			// mode; a smooth residual puts that value near λmin instead.
			p, p3 = smoothProblem2D(t, 32), smoothProblem3D(t, 8)
		}
		o := withBlock(Options{Tol: 1e-10, EigenCGIters: 1, InnerSteps: inner}, block, p, p3)
		res, err := SolvePPCG(p, o)
		wantBreakdown(t, "ppcg 2D", res, err)
		if res.TotalInner > 2*inner {
			t.Errorf("ppcg 2D jac_block=%v: %d inner steps before the overflow was reported", block, res.TotalInner)
		}
		res, err = SolvePPCG3D(p3, o)
		wantBreakdown(t, "ppcg 3D", res, err)
		if res.TotalInner > 2*inner {
			t.Errorf("ppcg 3D jac_block=%v: %d inner steps before the overflow was reported", block, res.TotalInner)
		}
	}

	// Two hub ranks, depth-3 matrix powers.
	const nx, ny, halo = 24, 20, 3
	part := grid.MustPartition(nx, ny, 2, 1)
	gg := grid.UnitGrid2D(nx, ny, halo)
	denAt, rhsAt := stepFields(nx, ny, 1, 7)
	err := comm.Run(part, func(c *comm.RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		den, rhs := grid.NewField2D(sub), grid.NewField2D(sub)
		for j := 0; j < sub.NY; j++ {
			for i := 0; i < sub.NX; i++ {
				den.Set(i, j, denAt(ext.X0+i, ext.Y0+j, 0))
				rhs.Set(i, j, rhsAt(ext.X0+i, ext.Y0+j, 0))
			}
		}
		if err := c.Exchange(halo, den); err != nil {
			return err
		}
		ph := c.Physical()
		op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides{Left: ph.Left, Right: ph.Right, Down: ph.Down, Up: ph.Up})
		if err != nil {
			return err
		}
		res, err := SolvePPCG(Problem{Op: op, U: rhs.Clone(), RHS: rhs},
			Options{Tol: 1e-10, Comm: c, EigenCGIters: 1, InnerSteps: inner, HaloDepth: halo})
		wantBreakdown(t, "ppcg 2 ranks", res, err)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The stand-alone Chebyshev iteration is reduction-free between its
// convergence checks, so a check is where an overflow can first be seen:
// with the checks spaced wider than the overflow takes, the first one
// reports it (re-bootstrapping from a non-finite iterate cannot help)
// long before the iteration budget runs out.
func TestChebyshevOverflowIsBreakdown(t *testing.T) {
	o := Options{Tol: 1e-10, EigenCGIters: 1, MaxIters: 60000, CheckEvery: 15000}
	p := buildProblem(t, 24, 20, 2, 3)
	res, err := SolveChebyshev(p, o)
	wantBreakdown(t, "chebyshev 2D", res, err)
	if res.Iterations > o.CheckEvery+o.EigenCGIters {
		t.Errorf("chebyshev 2D: %d iterations, want the first check at %d to report the overflow", res.Iterations, o.CheckEvery)
	}
	p3 := buildProblem3D(t, 8, 3)
	res, err = SolveCheby3D(p3, o)
	wantBreakdown(t, "chebyshev 3D", res, err)
	if res.Iterations > o.CheckEvery+o.EigenCGIters {
		t.Errorf("chebyshev 3D: %d iterations, want the first check at %d to report the overflow", res.Iterations, o.CheckEvery)
	}

	// The same absurd spectrum with a check before the overflow: the
	// residual has grown by tens of orders of magnitude but is finite, so
	// the guard still re-bootstraps and the solve still converges.
	o.CheckEvery = 200
	res, err = SolveChebyshev(buildProblem(t, 24, 20, 2, 3), o)
	if err != nil || !res.Converged || res.Rebootstraps < 1 {
		t.Errorf("chebyshev 2D, finite divergence: err %v, converged %v, %d re-bootstraps; want a recovered solve", err, res.Converged, res.Rebootstraps)
	}
	res, err = SolveCheby3D(buildProblem3D(t, 8, 3), o)
	if err != nil || !res.Converged || res.Rebootstraps < 1 {
		t.Errorf("chebyshev 3D, finite divergence: err %v, converged %v, %d re-bootstraps; want a recovered solve", err, res.Converged, res.Rebootstraps)
	}
}

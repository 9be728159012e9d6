package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

func buildProblem3D(t *testing.T, n int, seed int64) Problem3D {
	t.Helper()
	return buildProblem3DHalo(t, n, seed, 1)
}

func buildProblem3DHalo(t *testing.T, n int, seed int64, halo int) Problem3D {
	t.Helper()
	g := grid.UnitGrid3D(n, n, n, halo)
	den := grid.NewField3D(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				den.Set(i, j, k, 0.5+rng.Float64()*4)
			}
		}
	}
	den.ReflectHalos(halo)
	op, err := stencil.BuildOperator3D(par.Serial, den, 0.02, stencil.Conductivity, stencil.AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	rhs := grid.NewField3D(g)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				v := 0.1
				if i < n/2 && j < n/2 && k < n/2 {
					v = 5
				}
				rhs.Set(i, j, k, v)
			}
		}
	}
	return Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
}

func TestSolveCG3DConverges(t *testing.T) {
	p := buildProblem3D(t, 12, 1)
	res, err := SolveCG3D(p, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("3D CG did not converge: %+v", res)
	}
	// Verify the true residual.
	g := p.Op.Grid
	r := grid.NewField3D(g)
	p.U.ReflectHalos(1)
	p.Op.Residual(par.Serial, g.Interior(), p.U, p.RHS, r)
	var rr, bb float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				rr += r.At(i, j, k) * r.At(i, j, k)
				bb += p.RHS.At(i, j, k) * p.RHS.At(i, j, k)
			}
		}
	}
	if math.Sqrt(rr/bb) > 1e-8 {
		t.Errorf("true 3D residual %v", math.Sqrt(rr/bb))
	}
}

func TestSolveCG3DValidation(t *testing.T) {
	if _, err := SolveCG3D(Problem3D{}, Options{}); err == nil {
		t.Error("empty 3D problem must error")
	}
}

func TestSolveCG3DZeroRHS(t *testing.T) {
	p := buildProblem3D(t, 6, 2)
	p.RHS.Fill(0)
	p.U.Fill(0)
	res, err := SolveCG3D(p, Options{})
	if err != nil || !res.Converged || res.Iterations != 0 {
		t.Errorf("zero RHS: %v %+v", err, res)
	}
}

func TestSolveCG3DPreservesConstant(t *testing.T) {
	// A·1 = 1, so rhs = 1 must solve to u = 1 immediately.
	p := buildProblem3D(t, 8, 3)
	p.RHS.Fill(0)
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				p.RHS.Set(i, j, k, 1)
			}
		}
	}
	p.U.CopyFrom(p.RHS)
	res, err := SolveCG3D(p, Options{Tol: 1e-12})
	if err != nil || !res.Converged {
		t.Fatalf("%v %+v", err, res)
	}
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				if math.Abs(p.U.At(i, j, k)-1) > 1e-10 {
					t.Fatalf("u(%d,%d,%d) = %v, want 1", i, j, k, p.U.At(i, j, k))
				}
			}
		}
	}
}

func TestSolveCG3DIterationsGrowWithMesh(t *testing.T) {
	var prev int
	for _, n := range []int{8, 16} {
		p := buildProblem3D(t, n, 4)
		res, err := SolveCG3D(p, Options{Tol: 1e-10})
		if err != nil || !res.Converged {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 8 && res.Iterations <= prev {
			t.Errorf("iterations must grow with mesh: %d then %d", prev, res.Iterations)
		}
		prev = res.Iterations
	}
}

func TestFusedMatchesUnfusedCG3D(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		pool := par.NewPool(workers).WithGrain(1)
		pf := buildProblem3D(t, 14, 66)
		pu := buildProblem3D(t, 14, 66)
		resF, err := SolveCG3D(pf, Options{Tol: 1e-10, Pool: pool})
		if err != nil || !resF.Converged {
			t.Fatalf("w%d fused: %v (converged=%v)", workers, err, resF.Converged)
		}
		resU, err := solveCGClassic3D(pu, Options{Tol: 1e-10, Pool: pool})
		if err != nil || !resU.Converged {
			t.Fatalf("w%d unfused: %v", workers, err)
		}
		if d := resF.Iterations - resU.Iterations; d < -1 || d > 1 {
			t.Errorf("w%d: fused %d iterations vs unfused %d (want ±1)", workers, resF.Iterations, resU.Iterations)
		}
		if d := pf.U.MaxDiff(pu.U); d > 1e-8 {
			t.Errorf("w%d: solutions differ by %v", workers, d)
		}
		pool.Close()
	}
}

// Jacobi-preconditioned fused CG must agree with the unfused textbook
// preconditioned loop and actually reduce iterations on a stiff problem.
func TestSolveCG3DJacobiPreconditioned(t *testing.T) {
	pf := buildProblem3DHalo(t, 12, 7, 2)
	pu := buildProblem3DHalo(t, 12, 7, 2)
	mf := precond.NewJacobi3D(par.Serial, pf.Op)
	mu := precond.NewJacobi3D(par.Serial, pu.Op)
	resF, err := SolveCG3D(pf, Options{Tol: 1e-10, Precond3D: mf})
	if err != nil || !resF.Converged {
		t.Fatalf("fused jacobi: %v %+v", err, resF)
	}
	resU, err := solveCGClassic3D(pu, Options{Tol: 1e-10, Precond3D: mu})
	if err != nil || !resU.Converged {
		t.Fatalf("unfused jacobi: %v", err)
	}
	if d := resF.Iterations - resU.Iterations; d < -1 || d > 1 {
		t.Errorf("fused %d vs unfused %d iterations", resF.Iterations, resU.Iterations)
	}
	if d := pf.U.MaxDiff(pu.U); d > 1e-8 {
		t.Errorf("solutions differ by %v", d)
	}
}

// An indefinite operator must produce an explicit breakdown error at
// startup — not the old silent {FinalResidual: 1, err: nil} return that
// was indistinguishable from divergence.
func TestSolveCG3DStartupBreakdownIsExplicit(t *testing.T) {
	g := grid.UnitGrid3D(6, 6, 6, 1)
	op := &stencil.Operator3D{
		Grid: g,
		Kx:   grid.NewField3D(g), Ky: grid.NewField3D(g), Kz: grid.NewField3D(g),
	}
	// Large negative couplings keep row sums at one but make the diagonal
	// negative; on an odd-even oscillating residual the quadratic form
	// r·A·r is strongly negative, so the startup curvature breaks down.
	op.Kx.Fill(-5)
	op.Ky.Fill(-5)
	op.Kz.Fill(-5)
	rhs := grid.NewField3D(g)
	for k := 0; k < 6; k++ {
		for j := 0; j < 6; j++ {
			for i := 0; i < 6; i++ {
				v := 1.0
				if (i+j+k)%2 == 1 {
					v = -1
				}
				rhs.Set(i, j, k, v)
			}
		}
	}
	p := Problem3D{Op: op, U: grid.NewField3D(g), RHS: rhs}
	res, err := SolveCG3D(p, Options{Tol: 1e-10, MaxIters: 10})
	if err == nil {
		t.Fatal("indefinite operator must return an error")
	}
	if !errors.Is(err, ErrBreakdown) {
		t.Errorf("error %v is not ErrBreakdown", err)
	}
	if !res.Breakdown {
		t.Error("Result.Breakdown must be set")
	}
	if res.Converged {
		t.Error("breakdown must not be reported as convergence")
	}
}

func TestSolveCheby3DConverges(t *testing.T) {
	p := buildProblem3D(t, 12, 9)
	// Chebyshev needs a λmax estimate from the full spectrum: too few
	// bootstrap iterations underestimate it and the iteration diverges
	// (the same sensitivity eigen.EstimateFromCG documents for 2D).
	res, err := SolveCheby3D(p, Options{Tol: 1e-9, EigenCGIters: 25})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("3D Chebyshev did not converge: %+v", res)
	}
	if res.Eigen == nil || res.BootstrapIters == 0 {
		t.Error("bootstrap metadata missing")
	}
}

func TestSolvePPCG3DConverges(t *testing.T) {
	for _, depth := range []int{1, 2} {
		p := buildProblem3DHalo(t, 12, 10, 2)
		m := precond.NewJacobi3D(par.Serial, p.Op)
		res, err := SolvePPCG3D(p, Options{Tol: 1e-10, EigenCGIters: 10, InnerSteps: 4, HaloDepth: depth, Precond3D: m})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if !res.Converged {
			t.Fatalf("depth %d: 3D PPCG did not converge: %+v", depth, res)
		}
		if res.TotalInner == 0 {
			t.Error("inner steps not counted")
		}
	}
}

func TestSolve3DDispatch(t *testing.T) {
	p := buildProblem3D(t, 8, 11)
	res, err := Solve3D(KindJacobi, p, Options{Tol: 1e-9, MaxIters: 50000})
	if err != nil || !res.Converged {
		t.Errorf("dispatch jacobi: %v %+v", err, res)
	}
	p = buildProblem3D(t, 8, 11)
	res, err = Solve3D(KindCG, p, Options{Tol: 1e-9})
	if err != nil || !res.Converged {
		t.Errorf("dispatch cg: %v", err)
	}
	if _, err := Solve3D(Kind("nope"), p, Options{}); err == nil {
		t.Error("unknown kind must error")
	}
}

// The 3D point-Jacobi loop must agree with CG on the solution — the same
// cross-check the 2D solvers pin — and be rank-invariant enough to trust
// its convergence monitor (the L1 update norm is globally reduced).
func TestSolveJacobi3DMatchesCG(t *testing.T) {
	a := buildProblem3D(t, 10, 7)
	b := buildProblem3D(t, 10, 7)
	if _, err := SolveCG3D(a, Options{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	res, err := SolveJacobi3D(b, Options{Tol: 1e-12, MaxIters: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("3D Jacobi did not converge: %+v", res)
	}
	if d := a.U.MaxDiff(b.U); d > 1e-6 {
		t.Errorf("3D Jacobi and CG solutions differ by %v", d)
	}
}

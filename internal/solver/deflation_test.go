package solver

import (
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stats"
	"tealeaf/internal/stencil"
)

// stiffProblem builds A = I + Δt·L with Δt·λ₂(L) ≫ 1 — the near-steady
// regime where the low-energy subdomain modes are genuine spectral
// outliers and deflation pays (see internal/deflate's package comment).
func stiffProblem(t *testing.T, n int) Problem {
	t.Helper()
	g := grid.MustGrid2D(n, n, 2, 0, 1, 0, 1)
	den := grid.NewField2D(g)
	den.Fill(1)
	op, err := stencil.BuildOperator2D(par.Serial, den, 10.0, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	rhs := grid.NewField2D(g)
	rhs.FillBounds(grid.Bounds{X0: 0, X1: n / 4, Y0: 0, Y1: n / 4}, 1)
	return Problem{Op: op, U: rhs.Clone(), RHS: rhs}
}

func newDeflation(t *testing.T, op *stencil.Operator2D, blocks, levels int) *deflate.Deflation {
	t.Helper()
	d, err := deflate.New(par.Serial, nil, op, deflate.Geometry{},
		deflate.Config{BX: blocks, BY: blocks, Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Deflation composed through solver.Options versus the paper's headline
// PPCG, on the stiff problem: deflated CG must beat plain CG decisively
// (the §VII promise), and the three solvers must agree on the solution.
// PPCG remains the iteration-count winner — its inner Chebyshev steps do
// the spectral work deflation only does for the lowest modes — which is
// exactly the trade the teabench deflation experiment quantifies.
func TestDeflationVsPPCGOnStiffProblem(t *testing.T) {
	const n = 64
	const tol = 1e-9

	plain := stiffProblem(t, n)
	plainRes, err := SolveCG(plain, Options{Tol: tol})
	if err != nil || !plainRes.Converged {
		t.Fatalf("plain CG: %v %+v", err, plainRes)
	}

	deflP := stiffProblem(t, n)
	deflRes, err := SolveCG(deflP, Options{Tol: tol, Deflation: newDeflation(t, deflP.Op, 8, 1)})
	if err != nil || !deflRes.Converged {
		t.Fatalf("deflated CG: %v %+v", err, deflRes)
	}

	ppcgP := stiffProblem(t, n)
	ppcgRes, err := SolvePPCG(ppcgP, Options{Tol: tol, EigenCGIters: 10})
	if err != nil || !ppcgRes.Converged {
		t.Fatalf("PPCG: %v %+v", err, ppcgRes)
	}

	if float64(deflRes.Iterations) > 0.7*float64(plainRes.Iterations) {
		t.Errorf("deflated CG took %d iterations, plain CG %d — expected ≥30%% reduction",
			deflRes.Iterations, plainRes.Iterations)
	}
	if ppcgRes.Iterations >= plainRes.Iterations {
		t.Errorf("PPCG took %d outer iterations, plain CG %d — the polynomial preconditioner must win",
			ppcgRes.Iterations, plainRes.Iterations)
	}
	t.Logf("stiff %dx%d iterations: CG %d, deflated CG %d, PPCG %d (+%d inner)",
		n, n, plainRes.Iterations, deflRes.Iterations, ppcgRes.Iterations, ppcgRes.TotalInner)

	if d := deflP.U.MaxDiff(plain.U); d > 1e-6 {
		t.Errorf("deflated solution differs from plain CG by %v", d)
	}
	if d := ppcgP.U.MaxDiff(plain.U); d > 1e-6 {
		t.Errorf("PPCG solution differs from plain CG by %v", d)
	}
}

// Deflation's composition rules at the solver layer: CG and PPCG compose
// (both engines, both dimensionalities), Jacobi and the stand-alone
// Chebyshev iteration do not, and a projector of the wrong dimensionality
// is rejected — each with an actionable error.
func TestDeflationValidation(t *testing.T) {
	p := stiffProblem(t, 16)
	defl := newDeflation(t, p.Op, 4, 1)
	if _, err := SolveChebyshev(p, Options{Deflation: defl}); err == nil {
		t.Error("deflation with Chebyshev must be rejected")
	}
	if _, err := SolveJacobi(p, Options{Deflation: defl}); err == nil {
		t.Error("deflation with Jacobi must be rejected")
	}
	p3 := buildProblem3D(t, 8, 5)
	if _, err := SolveCG3D(p3, Options{Deflation: defl}); err == nil {
		t.Error("a 2D projector on the 3D path must be rejected")
	}
	if _, err := SolveJacobi3D(p3, Options{Deflation: defl}); err == nil {
		t.Error("a 2D projector on the 3D jacobi path must be rejected")
	}
	// PPCG now composes: the solve must run and converge.
	pp := stiffProblem(t, 16)
	res, err := SolvePPCG(pp, Options{Tol: 1e-8, EigenCGIters: 8,
		Deflation: newDeflation(t, pp.Op, 4, 1)})
	if err != nil || !res.Converged {
		t.Errorf("deflated PPCG must run: %v %+v", err, res)
	}
}

// The deflated path must also work with a preconditioner, folded
// (jac_diag) or with an explicit z (jac_block), converging to the plain
// solution.
func TestDeflationWithPreconditioner(t *testing.T) {
	plain := stiffProblem(t, 32)
	plainRes, err := SolveCG(plain, Options{Tol: 1e-9})
	if err != nil || !plainRes.Converged {
		t.Fatalf("plain CG: %v", err)
	}
	for _, name := range []string{"jac_diag", "jac_block"} {
		p := stiffProblem(t, 32)
		res, err := SolveCG(p, Options{Tol: 1e-9,
			Deflation: newDeflation(t, p.Op, 4, 1),
			Precond:   fusedPrecondFor(name, p)})
		if err != nil || !res.Converged {
			t.Fatalf("deflated %s CG: %v %+v", name, err, res)
		}
		if d := p.U.MaxDiff(plain.U); d > 1e-6 {
			t.Errorf("deflated %s solution differs by %v", name, d)
		}
		if res.Iterations >= plainRes.Iterations {
			t.Errorf("deflated %s CG took %d iterations, plain %d", name, res.Iterations, plainRes.Iterations)
		}
	}
}

// The engine and the textbook PCG oracle must agree on the deflated
// iteration: same solution and iteration counts within ±1, with no
// preconditioner, a folded one and an explicit one.
func TestDeflationFusedMatchesClassic(t *testing.T) {
	const n = 48
	for _, name := range []string{"none", "jac_diag", "jac_block"} {
		run := func(solve func(Problem, Options) (Result, error)) (Result, Problem) {
			p := stiffProblem(t, n)
			o := Options{Tol: 1e-10, Deflation: newDeflation(t, p.Op, 6, 1),
				Precond: fusedPrecondFor(name, p)}
			res, err := solve(p, o)
			if err != nil || !res.Converged {
				t.Fatalf("deflated CG (precond=%s): %v %+v", name, err, res)
			}
			return res, p
		}
		engine, pe := run(SolveCG)
		oracle, po := run(solveCGClassic)
		if d := engine.Iterations - oracle.Iterations; d < -1 || d > 1 {
			t.Errorf("precond=%s: engine took %d iterations, oracle %d (want ±1)",
				name, engine.Iterations, oracle.Iterations)
		}
		if d := pe.U.MaxDiff(po.U); d > 1e-8 {
			t.Errorf("precond=%s: engine and oracle deflated solutions differ by %v", name, d)
		}
	}
}

// The nested multi-level hierarchy (tl_deflation_levels > 1) must
// converge in no more iterations than the two-level dense solve — the
// nested coarse solves are iterated to round-off, so the projector is
// the same operator — and agree on the solution.
func TestDeflationMultiLevelMatchesTwoLevel(t *testing.T) {
	const n = 64
	two := stiffProblem(t, n)
	twoRes, err := SolveCG(two, Options{Tol: 1e-9, Deflation: newDeflation(t, two.Op, 8, 1)})
	if err != nil || !twoRes.Converged {
		t.Fatalf("two-level deflated CG: %v %+v", err, twoRes)
	}
	for _, levels := range []int{2, 3} {
		p := stiffProblem(t, n)
		defl := newDeflation(t, p.Op, 8, levels)
		if got := defl.Levels(); got != levels {
			t.Fatalf("hierarchy depth = %d, want %d", got, levels)
		}
		res, err := SolveCG(p, Options{Tol: 1e-9, Deflation: defl})
		if err != nil || !res.Converged {
			t.Fatalf("%d-level deflated CG: %v %+v", levels, err, res)
		}
		if res.Iterations > twoRes.Iterations {
			t.Errorf("%d-level deflated CG took %d iterations, two-level %d — nesting must not regress",
				levels, res.Iterations, twoRes.Iterations)
		}
		if d := p.U.MaxDiff(two.U); d > 1e-7 {
			t.Errorf("%d-level solution differs from two-level by %v", levels, d)
		}
	}
}

// Deflated PPCG on the stiff problem: converges, agrees with plain CG,
// and needs no more outer iterations than plain PPCG (deflation removes
// the lowest modes before the polynomial smooths the rest).
func TestDeflatedPPCGOnStiffProblem(t *testing.T) {
	const n = 64
	const tol = 1e-9
	ref := stiffProblem(t, n)
	refRes, err := SolveCG(ref, Options{Tol: tol})
	if err != nil || !refRes.Converged {
		t.Fatalf("reference CG: %v", err)
	}
	plain := stiffProblem(t, n)
	plainRes, err := SolvePPCG(plain, Options{Tol: tol, EigenCGIters: 10})
	if err != nil || !plainRes.Converged {
		t.Fatalf("plain PPCG: %v %+v", err, plainRes)
	}
	p := stiffProblem(t, n)
	res, err := SolvePPCG(p, Options{Tol: tol, EigenCGIters: 10,
		Deflation: newDeflation(t, p.Op, 8, 1)})
	if err != nil || !res.Converged {
		t.Fatalf("deflated PPCG: %v %+v", err, res)
	}
	if d := p.U.MaxDiff(ref.U); d > 1e-6 {
		t.Errorf("deflated PPCG solution differs from CG by %v", d)
	}
	if res.Iterations > plainRes.Iterations+2 {
		t.Errorf("deflated PPCG took %d outer iterations, plain PPCG %d — deflation must not regress the outer count",
			res.Iterations, plainRes.Iterations)
	}
	t.Logf("stiff %dx%d PPCG outer iterations: plain %d, deflated %d", n, n, plainRes.Iterations, res.Iterations)
}

// The projection's communication price, pinned by trace: none. A
// deflated CG iteration performs exactly the one reduction round of its
// plain counterpart — the coarse residual Wᵀ·w travels in the scalar
// round, and every rank solves for λ from the same sums — folded or with
// an explicit z (jac_block) alike (1 round each; the projector's own
// round made it 2 before). Measured as the slope of rounds over
// iterations so startup rounds cancel.
func TestDeflationTraceNoExtraReductionRound(t *testing.T) {
	const n = 32
	rounds := func(name string, deflated bool, iters int) (reductions, itersRan int) {
		t.Helper()
		p := stiffProblem(t, n)
		c := comm.NewSerial()
		o := Options{Tol: 1e-30, MaxIters: iters, Comm: c, Precond: fusedPrecondFor(name, p)}
		if deflated {
			defl, err := deflate.New(par.Serial, c, p.Op, deflate.Geometry{},
				deflate.Config{BX: 4, BY: 4})
			if err != nil {
				t.Fatal(err)
			}
			o.Deflation = defl
		}
		res, err := SolveCG(p, o)
		if err != nil {
			t.Fatal(err)
		}
		return c.Trace().Reductions, res.Iterations
	}
	for _, name := range []string{"none", "jac_block"} {
		slope := func(deflated bool) int {
			r1, i1 := rounds(name, deflated, 10)
			r2, i2 := rounds(name, deflated, 20)
			if i2 == i1 {
				t.Fatalf("iteration counts did not differ (%d vs %d)", i1, i2)
			}
			if (r2-r1)%(i2-i1) != 0 {
				t.Fatalf("non-integral rounds-per-iteration slope: Δrounds=%d Δiters=%d", r2-r1, i2-i1)
			}
			return (r2 - r1) / (i2 - i1)
		}
		plain := slope(false)
		defl := slope(true)
		if plain != 1 || defl != 1 {
			t.Errorf("precond=%s: deflated CG performs %d reduction rounds/iteration, plain %d — want 1 and 1",
				name, defl, plain)
		}
	}
}

// The deflated iteration's sweep profile, pinned by trace slope (counts
// per iteration, startup cancelled): the projection is no sweep of its
// own and no round of its own. The restriction's row sums ride the
// matvec, Wᵀ·w rides the scalar round, the curvature comes from the
// coarse solve (δ − bᵀλ), and the flux correction rides the next sweep
// that reads w. Folded: the matvec and the merged step (one pass,
// counted as the work of both), 1 round — the plain iteration's profile.
// Explicit z (jac_block): 3 vector sweeps (the correction inside the
// s = w + β·s one), the block solve, the matvec, the γ/‖r‖² dot, 1 round.
func TestDeflatedTraceSweepCounts(t *testing.T) {
	type profile struct{ matvecs, vectorPasses, dots, preconds, reductions int }
	run := func(name string, iters int) (stats.Trace, int) {
		t.Helper()
		p := stiffProblem(t, 32)
		c := comm.NewSerial()
		o := Options{Tol: 1e-30, MaxIters: iters, Comm: c, Precond: fusedPrecondFor(name, p)}
		defl, err := deflate.New(par.Serial, c, p.Op, deflate.Geometry{}, deflate.Config{BX: 4, BY: 4})
		if err != nil {
			t.Fatal(err)
		}
		o.Deflation = defl
		res, err := SolveCG(p, o)
		if err != nil {
			t.Fatal(err)
		}
		return *c.Trace(), res.Iterations
	}
	for _, tc := range []struct {
		name string
		want profile
	}{
		{"none", profile{1, 1, 0, 0, 1}},
		{"jac_diag", profile{1, 1, 0, 0, 1}},
		{"jac_block", profile{1, 3, 1, 1, 1}},
	} {
		t1, i1 := run(tc.name, 10)
		t2, i2 := run(tc.name, 20)
		di := i2 - i1
		if di <= 0 {
			t.Fatalf("%s: iteration counts did not differ (%d vs %d)", tc.name, i1, i2)
		}
		got := profile{
			(t2.Matvecs - t1.Matvecs) / di, (t2.VectorPasses - t1.VectorPasses) / di,
			(t2.Dots - t1.Dots) / di, (t2.PrecondApplies - t1.PrecondApplies) / di,
			(t2.Reductions - t1.Reductions) / di,
		}
		if got != tc.want {
			t.Errorf("%s: per-iteration {matvecs vectorPasses dots preconds reductions} = %v, want %v", tc.name, got, tc.want)
		}
	}
}

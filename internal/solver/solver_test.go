package solver

import (
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// buildProblem constructs a serial test problem: random positive density,
// u0 = energy·density with a hot square, A from backward Euler.
func buildProblem(t *testing.T, nx, ny, haloDepth int, seed int64) Problem {
	t.Helper()
	g := grid.UnitGrid2D(nx, ny, haloDepth)
	den := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < ny; k++ {
		for j := 0; j < nx; j++ {
			den.Set(j, k, 0.5+rng.Float64()*4)
		}
	}
	den.ReflectHalos(g.Halo)
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	rhs := grid.NewField2D(g)
	for k := 0; k < ny; k++ {
		for j := 0; j < nx; j++ {
			v := 0.1
			if j > nx/4 && j < nx/2 && k > ny/4 && k < ny/2 {
				v = 10 // hot region
			}
			rhs.Set(j, k, v)
		}
	}
	u := rhs.Clone()
	return Problem{Op: op, U: u, RHS: rhs}
}

// trueRelResidual recomputes ‖rhs − A·u‖/‖r₀‖ where r₀ used u=rhs as the
// initial guess (matching the solvers' convention).
func trueRelResidual(t *testing.T, p Problem) float64 {
	t.Helper()
	g := p.Op.Grid
	r := grid.NewField2D(g)
	u := p.U.Clone()
	u.ReflectHalos(1)
	p.Op.Residual(par.Serial, g.Interior(), u, p.RHS, r)
	num := r.Norm2Interior()

	u0 := p.RHS.Clone()
	u0.ReflectHalos(1)
	p.Op.Residual(par.Serial, g.Interior(), u0, p.RHS, r)
	den := r.Norm2Interior()
	if den == 0 {
		return 0
	}
	return num / den
}

func TestSolveCGConverges(t *testing.T) {
	p := buildProblem(t, 32, 32, 2, 1)
	res, err := SolveCG(p, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	if rr := trueRelResidual(t, p); rr > 1e-9 {
		t.Errorf("true residual %v exceeds tolerance", rr)
	}
	if res.Iterations != len(res.History) {
		t.Errorf("history length %d != iterations %d", len(res.History), res.Iterations)
	}
	if len(res.Alphas) != res.Iterations {
		t.Errorf("alphas %d != iterations %d", len(res.Alphas), res.Iterations)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > 10*res.History[0] {
			t.Errorf("residual blew up at %d: %v", i, res.History[i])
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	p := buildProblem(t, 8, 8, 1, 2)
	p.RHS.Zero()
	p.U.Zero()
	res, err := SolveCG(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero RHS must converge immediately: %+v", res)
	}
}

func TestSolveCGValidation(t *testing.T) {
	p := buildProblem(t, 8, 8, 1, 3)
	if _, err := SolveCG(Problem{}, Options{}); err == nil {
		t.Error("empty problem must error")
	}
	if _, err := SolveCG(p, Options{HaloDepth: 5}); err == nil {
		t.Error("halo depth beyond grid halo must error")
	}
	bj := precond.NewBlockJacobi(par.Serial, p.Op, 4)
	p2 := buildProblem(t, 8, 8, 4, 3)
	bj2 := precond.NewBlockJacobi(par.Serial, p2.Op, 4)
	if _, err := SolvePPCG(p2, Options{HaloDepth: 4, Precond: bj2}); err == nil {
		t.Error("block-Jacobi with matrix powers must error")
	}
	_ = bj
}

func TestPCGVariantsAgree(t *testing.T) {
	// All preconditioners must converge to the same solution.
	base := buildProblem(t, 24, 24, 2, 4)
	ref, err := SolveCG(base, Options{Tol: 1e-12})
	if err != nil || !ref.Converged {
		t.Fatalf("reference failed: %v %+v", err, ref)
	}
	for _, name := range []string{"jac_diag", "jac_block"} {
		p := buildProblem(t, 24, 24, 2, 4)
		m, err := precond.FromName(name, par.Serial, p.Op)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveCG(p, Options{Tol: 1e-12, Precond: m})
		if err != nil || !res.Converged {
			t.Fatalf("%s failed: %v %+v", name, err, res)
		}
		if d := p.U.MaxDiff(base.U); d > 1e-8 {
			t.Errorf("%s solution differs by %v", name, d)
		}
	}
}

func TestPreconditioningReducesIterations(t *testing.T) {
	plain := buildProblem(t, 48, 48, 2, 5)
	rPlain, err := SolveCG(plain, Options{Tol: 1e-10})
	if err != nil || !rPlain.Converged {
		t.Fatalf("plain CG failed: %v", err)
	}
	block := buildProblem(t, 48, 48, 2, 5)
	m := precond.NewBlockJacobi(par.Serial, block.Op, 4)
	rBlock, err := SolveCG(block, Options{Tol: 1e-10, Precond: m})
	if err != nil || !rBlock.Converged {
		t.Fatalf("block CG failed: %v", err)
	}
	if rBlock.Iterations >= rPlain.Iterations {
		t.Errorf("block-Jacobi PCG took %d iterations, plain CG %d — preconditioning must help",
			rBlock.Iterations, rPlain.Iterations)
	}
}

func TestFusedDotsIdenticalResults(t *testing.T) {
	a := buildProblem(t, 24, 24, 1, 6)
	b := buildProblem(t, 24, 24, 1, 6)
	m1 := precond.NewJacobi(par.Serial, a.Op)
	m2 := precond.NewJacobi(par.Serial, b.Op)
	r1, err := SolveCG(a, Options{Tol: 1e-11, Precond: m1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveCG(b, Options{Tol: 1e-11, Precond: m2, FusedDots: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations != r2.Iterations {
		t.Errorf("fused dots changed iteration count: %d vs %d", r1.Iterations, r2.Iterations)
	}
	if d := a.U.MaxDiff(b.U); d != 0 {
		t.Errorf("fused dots changed the solution by %v", d)
	}
}

func TestSolveJacobiConverges(t *testing.T) {
	p := buildProblem(t, 16, 16, 1, 7)
	res, err := SolveJacobi(p, Options{Tol: 1e-9, MaxIters: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Jacobi did not converge: %+v", res)
	}
	// Jacobi's update-norm criterion is weaker than the residual one;
	// the true residual must still be small.
	if rr := trueRelResidual(t, p); rr > 1e-6 {
		t.Errorf("true residual %v too large", rr)
	}
}

func TestJacobiMatchesCG(t *testing.T) {
	a := buildProblem(t, 16, 16, 1, 8)
	b := buildProblem(t, 16, 16, 1, 8)
	if _, err := SolveCG(a, Options{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveJacobi(b, Options{Tol: 1e-12, MaxIters: 200000}); err != nil {
		t.Fatal(err)
	}
	if d := a.U.MaxDiff(b.U); d > 1e-6 {
		t.Errorf("Jacobi and CG solutions differ by %v", d)
	}
}

func TestSolveChebyshevConverges(t *testing.T) {
	p := buildProblem(t, 32, 32, 2, 9)
	res, err := SolveChebyshev(p, Options{Tol: 1e-9, EigenCGIters: 15, CheckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Chebyshev did not converge: %+v", res)
	}
	if res.Eigen == nil {
		t.Fatal("Chebyshev must report its eigenvalue estimate")
	}
	if res.Eigen.Min <= 0 || res.Eigen.Max <= res.Eigen.Min {
		t.Errorf("bad eigen estimate: %+v", res.Eigen)
	}
	if res.BootstrapIters != 15 {
		t.Errorf("bootstrap iters = %d, want 15", res.BootstrapIters)
	}
	if rr := trueRelResidual(t, p); rr > 1e-7 {
		t.Errorf("true residual %v", rr)
	}
}

func TestChebyshevMatchesCGSolution(t *testing.T) {
	a := buildProblem(t, 24, 24, 1, 10)
	b := buildProblem(t, 24, 24, 1, 10)
	if _, err := SolveCG(a, Options{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	res, err := SolveChebyshev(b, Options{Tol: 1e-11, EigenCGIters: 12, CheckEvery: 2})
	if err != nil || !res.Converged {
		t.Fatalf("cheby: %v %+v", err, res)
	}
	if d := a.U.MaxDiff(b.U); d > 1e-7 {
		t.Errorf("Chebyshev and CG solutions differ by %v", d)
	}
}

func TestSolvePPCGConverges(t *testing.T) {
	p := buildProblem(t, 32, 32, 2, 11)
	res, err := SolvePPCG(p, Options{Tol: 1e-10, EigenCGIters: 10, InnerSteps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("PPCG did not converge: %+v", res)
	}
	if res.Eigen == nil || res.TotalInner == 0 {
		t.Errorf("PPCG metadata missing: %+v", res)
	}
	if rr := trueRelResidual(t, p); rr > 1e-8 {
		t.Errorf("true residual %v", rr)
	}
}

func TestPPCGMatchesCGSolution(t *testing.T) {
	a := buildProblem(t, 24, 24, 1, 12)
	b := buildProblem(t, 24, 24, 1, 12)
	if _, err := SolveCG(a, Options{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	res, err := SolvePPCG(b, Options{Tol: 1e-11, EigenCGIters: 10, InnerSteps: 6})
	if err != nil || !res.Converged {
		t.Fatalf("ppcg: %v %+v", err, res)
	}
	if d := a.U.MaxDiff(b.U); d > 1e-7 {
		t.Errorf("PPCG and CG solutions differ by %v", d)
	}
}

func TestPPCGReducesOuterIterations(t *testing.T) {
	// The whole point of CPPCG: far fewer outer iterations (→ global
	// reductions) than plain CG for the same tolerance.
	cgP := buildProblem(t, 64, 64, 2, 13)
	rCG, err := SolveCG(cgP, Options{Tol: 1e-10})
	if err != nil || !rCG.Converged {
		t.Fatalf("CG: %v", err)
	}
	ppcgP := buildProblem(t, 64, 64, 2, 13)
	rPP, err := SolvePPCG(ppcgP, Options{Tol: 1e-10, EigenCGIters: 10, InnerSteps: 10})
	if err != nil || !rPP.Converged {
		t.Fatalf("PPCG: %v %+v", err, rPP)
	}
	if rPP.Iterations >= rCG.Iterations/2 {
		t.Errorf("PPCG outer iterations %d not ≪ CG iterations %d", rPP.Iterations, rCG.Iterations)
	}
}

func TestPPCGWithMatrixPowersMatchesDepth1(t *testing.T) {
	// Matrix powers is a communication restructuring: it must not change
	// the mathematics. Serial case: depth-4 and depth-1 runs must agree
	// to rounding.
	for _, depth := range []int{2, 4, 8} {
		a := buildProblem(t, 32, 32, 8, 14)
		b := buildProblem(t, 32, 32, 8, 14)
		r1, err := SolvePPCG(a, Options{Tol: 1e-10, EigenCGIters: 10, InnerSteps: 10, HaloDepth: 1})
		if err != nil || !r1.Converged {
			t.Fatalf("depth 1: %v %+v", err, r1)
		}
		rd, err := SolvePPCG(b, Options{Tol: 1e-10, EigenCGIters: 10, InnerSteps: 10, HaloDepth: depth})
		if err != nil || !rd.Converged {
			t.Fatalf("depth %d: %v %+v", depth, err, rd)
		}
		if d := a.U.MaxDiff(b.U); d > 1e-9 {
			t.Errorf("depth %d solution differs from depth 1 by %v", depth, d)
		}
		if rd.Iterations != r1.Iterations {
			t.Errorf("depth %d outer iterations %d != depth-1 %d", depth, rd.Iterations, r1.Iterations)
		}
	}
}

func TestMatrixPowersReducesExchanges(t *testing.T) {
	// Depth d must cut inner-loop exchanges by ~d.
	count := func(depth int) (exchanges int, res Result) {
		p := buildProblem(t, 32, 32, 8, 15)
		c := comm.NewSerial()
		res, err := SolvePPCG(p, Options{Tol: 1e-9, EigenCGIters: 10, InnerSteps: 8, HaloDepth: depth, Comm: c})
		if err != nil || !res.Converged {
			t.Fatalf("depth %d: %v", depth, err)
		}
		return c.Trace().HaloExchanges, res
	}
	e1, r1 := count(1)
	e8, r8 := count(8)
	if r1.Iterations != r8.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", r1.Iterations, r8.Iterations)
	}
	if float64(e8) > 0.45*float64(e1) {
		t.Errorf("depth 8 exchanges %d not ≪ depth 1 exchanges %d", e8, e1)
	}
}

func TestSolveDispatch(t *testing.T) {
	for _, kind := range []Kind{KindJacobi, KindCG, KindCheby, KindPPCG} {
		p := buildProblem(t, 16, 16, 2, 16)
		res, err := Solve(kind, p, Options{Tol: 1e-8, MaxIters: 100000})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !res.Converged {
			t.Errorf("%s did not converge", kind)
		}
	}
	if _, err := Solve(Kind("nope"), Problem{}, Options{}); err == nil {
		t.Error("unknown kind must error")
	}
}

func TestParseKind(t *testing.T) {
	for in, want := range map[string]Kind{
		"cg": KindCG, "jacobi": KindJacobi, "chebyshev": KindCheby,
		"cheby": KindCheby, "ppcg": KindPPCG, "cppcg": KindPPCG,
	} {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseKind("multigrid"); err == nil {
		t.Error("unknown solver must error")
	}
}

func TestCGTraceCounts(t *testing.T) {
	p := buildProblem(t, 16, 16, 1, 17)
	c := comm.NewSerial()
	res, err := SolveCG(p, Options{Tol: 1e-9, Comm: c, DisableFused: true})
	if err != nil || !res.Converged {
		t.Fatal(err)
	}
	tr := c.Trace()
	// Per iteration: 1 matvec (+1 initial residual), 1 exchange (+1
	// initial), 2 reductions (pw and rz).
	if tr.Matvecs != res.Iterations+1 {
		t.Errorf("matvecs = %d, want %d", tr.Matvecs, res.Iterations+1)
	}
	if tr.HaloExchanges != res.Iterations+1 {
		t.Errorf("exchanges = %d, want %d", tr.HaloExchanges, res.Iterations+1)
	}
	// Setup does three reductions (‖r₀‖², the ‖b‖² stop baseline and
	// rz₀), then two per iteration (pw and rz).
	wantRed := 2*res.Iterations + 3
	if tr.Reductions != wantRed {
		t.Errorf("reductions = %d, want %d", tr.Reductions, wantRed)
	}
}

func TestFusedCGTraceCounts(t *testing.T) {
	// The acceptance profile of the fused single-reduction CG: per
	// iteration exactly 2 grid sweeps' work (1 matvec + 1 merged vector
	// step) and exactly 1 reduction round, versus ≥5 sweeps and 2–3 rounds
	// unfused. The trace counts work, not passes over memory: the matvec
	// and the step run as ONE row-lagged pass (CGIter), and still count as
	// one matvec and one vector pass.
	for _, precondName := range []string{"none", "jac_diag"} {
		p := buildProblem(t, 16, 16, 1, 17)
		c := comm.NewSerial()
		o := Options{Tol: 1e-9, Comm: c}
		if precondName == "jac_diag" {
			o.Precond = precond.NewJacobi(par.Serial, p.Op)
		}
		res, err := SolveCG(p, o)
		if err != nil || !res.Converged {
			t.Fatalf("%s: %v (converged=%v)", precondName, err, res.Converged)
		}
		tr := c.Trace()
		iters := res.Iterations
		// Startup: 1 residual matvec + 1 fused init matvec; then 1 per
		// iteration.
		if tr.Matvecs != iters+2 {
			t.Errorf("%s: matvecs = %d, want %d", precondName, tr.Matvecs, iters+2)
		}
		// One vector pass per iteration over the whole interior, none at
		// startup.
		if cells := int64(iters) * int64(p.Op.Grid.Interior().Cells()); tr.VectorPasses != iters || tr.VectorCells != cells {
			t.Errorf("%s: %d vector passes over %d cells, want %d over %d",
				precondName, tr.VectorPasses, tr.VectorCells, iters, cells)
		}
		// Startup costs 3 constant sweeps (residual, init, ‖b‖² baseline
		// dot); per iteration exactly 2.
		sweeps := tr.Matvecs + tr.VectorPasses + tr.Dots + tr.PrecondApplies
		if sweeps != 2*iters+3 {
			t.Errorf("%s: %d grid sweeps over %d iterations, want %d", precondName, sweeps, iters, 2*iters+3)
		}
		// Exactly one reduction round per iteration, +2 at startup (init
		// scalars, ‖b‖² stop baseline).
		if tr.Reductions != iters+2 {
			t.Errorf("%s: reductions = %d, want %d", precondName, tr.Reductions, iters+2)
		}
		// Two halo exchanges at startup (u, r) and none per iteration: the
		// pass writes r's reflection on the physical sides as it steps.
		if tr.HaloExchanges != 2 {
			t.Errorf("%s: exchanges = %d, want 2", precondName, tr.HaloExchanges)
		}
	}
}

// TestFusedCGNeighbourDepth1TraceCounts pins the one fused path that keeps
// two sweeps: a rank neighbour at halo depth 1, whose halo of r is
// exchanged between the step and the matvec. Rank 0 of a 2×1 split: one
// exchange per iteration plus 2 at startup (u, r), one matvec and one
// vector pass per iteration plus the 2 startup matvecs, one round per
// iteration plus 2.
func TestFusedCGNeighbourDepth1TraceCounts(t *testing.T) {
	iters, _, tr := deepRun2D(t, deepVariants[0], 2, 1, 1)
	if tr.HaloExchanges != iters+2 || tr.ExchangesByDepth[1] != iters+2 {
		t.Errorf("exchanges = %d (by depth %v), want %d at depth 1", tr.HaloExchanges, tr.ExchangesByDepth, iters+2)
	}
	if tr.Matvecs != iters+2 || tr.VectorPasses != iters || tr.Reductions != iters+2 {
		t.Errorf("{matvecs vectorPasses reductions} = {%d %d %d}, want {%d %d %d}",
			tr.Matvecs, tr.VectorPasses, tr.Reductions, iters+2, iters, iters+2)
	}
}

// TestFusedDeepHaloVectorCells pins the deep-halo fused cycle's per-
// iteration accounting: still ONE traced vector pass per iteration,
// covering the interior plus the extension rings the step advances —
// iteration it of a depth-d cycle steps Extend(d − it mod d). Rank 0 of a
// 2×1 split of the 24² mesh owns 12×24 cells and extends toward its
// right-hand neighbour only, so that is (12 + d − it mod d)·24 cells. And
// one depth-d exchange per cycle of three fields, {r, w, s}: p feeds x
// alone, on the interior, so it is neither exchanged nor stepped on the
// rings. Each exchange is one message to the right of fields·d·24 values.
func TestFusedDeepHaloVectorCells(t *testing.T) {
	const depth = 3
	iters, _, tr := deepRun2D(t, deepVariants[0], 2, 1, depth)
	var cells int64
	for it := 0; it < iters; it++ {
		cells += int64(12+depth-it%depth) * 24
	}
	if tr.VectorPasses != iters || tr.VectorCells != cells {
		t.Errorf("%d vector passes over %d cells in %d iterations, want %d over %d",
			tr.VectorPasses, tr.VectorCells, iters, iters, cells)
	}
	if tr.Matvecs != iters+2 {
		t.Errorf("matvecs = %d, want %d", tr.Matvecs, iters+2)
	}
	// Startup: u and r at depth 1, the folded diagonal at depth d; then
	// one cycle-top exchange per d iterations.
	cycles := (iters + depth - 1) / depth
	if tr.ExchangesByDepth[1] != 2 || tr.ExchangesByDepth[depth] != 1+cycles {
		t.Errorf("exchanges by depth %v, want {1:2 %d:%d}", tr.ExchangesByDepth, depth, 1+cycles)
	}
	slab := func(fields, d int) int64 { return int64(fields*d*24) * 8 }
	if want := 2*slab(1, 1) + slab(1, depth) + int64(cycles)*slab(3, depth); tr.HaloBytes != want {
		t.Errorf("halo bytes = %d, want %d", tr.HaloBytes, want)
	}
}

func TestPPCGReducesReductionsPerMatvec(t *testing.T) {
	// The communication-avoiding claim, measured: reductions per matvec
	// must be much lower for PPCG than CG.
	run := func(kind Kind) (float64, Result) {
		p := buildProblem(t, 48, 48, 2, 18)
		c := comm.NewSerial()
		res, err := Solve(kind, p, Options{Tol: 1e-10, Comm: c, EigenCGIters: 10, InnerSteps: 10})
		if err != nil || !res.Converged {
			t.Fatalf("%s: %v", kind, err)
		}
		return float64(c.Trace().Reductions) / float64(c.Trace().Matvecs), res
	}
	cgRatio, _ := run(KindCG)
	ppcgRatio, _ := run(KindPPCG)
	if ppcgRatio > cgRatio/2 {
		t.Errorf("reductions/matvec: ppcg %v vs cg %v — expected ≥2× reduction", ppcgRatio, cgRatio)
	}
}

func TestSolverWithLargeConditionNumber(t *testing.T) {
	// Crooked-pipe-like density contrast of 1000:1; CG must still converge.
	g := grid.UnitGrid2D(32, 32, 2)
	den := grid.NewField2D(g)
	for k := 0; k < 32; k++ {
		for j := 0; j < 32; j++ {
			if k > 12 && k < 20 {
				den.Set(j, k, 0.01) // pipe
			} else {
				den.Set(j, k, 10)
			}
		}
	}
	den.ReflectHalos(2)
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.RecipConductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	rhs := grid.NewField2D(g)
	rhs.FillBounds(grid.Bounds{X0: 0, X1: 4, Y0: 14, Y1: 18}, 100)
	rhs.FillBounds(grid.Bounds{X0: 4, X1: 32, Y0: 0, Y1: 32}, 0.01)
	p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
	res, err := SolveCG(p, Options{Tol: 1e-10, MaxIters: 5000})
	if err != nil || !res.Converged {
		t.Fatalf("high-contrast CG failed: %v %+v", err, res)
	}
	res2, err := SolvePPCG(Problem{Op: op, U: rhs.Clone(), RHS: rhs}, Options{Tol: 1e-10, MaxIters: 5000})
	if err != nil || !res2.Converged {
		t.Fatalf("high-contrast PPCG failed: %v %+v", err, res2)
	}
}

func TestRelResidual(t *testing.T) {
	if relResidual(4, 16) != 0.5 {
		t.Error("relResidual wrong")
	}
	if relResidual(1, 0) != 0 {
		t.Error("zero baseline must give 0")
	}
	if math.IsNaN(relResidual(0, 4)) {
		t.Error("zero numerator must not NaN")
	}
}

// fusedPrecondFor builds the named preconditioner for a problem.
func fusedPrecondFor(name string, p Problem) precond.Preconditioner {
	switch name {
	case "jac_diag":
		return precond.NewJacobi(par.Serial, p.Op)
	case "jac_block":
		return precond.NewBlockJacobi(par.Serial, p.Op, 0)
	}
	return precond.NewNone()
}

func TestFusedMatchesUnfusedCG(t *testing.T) {
	// The fused single-reduction CG and the classic multi-pass CG must
	// converge to the same solution in the same iteration count (±1),
	// for every foldable preconditioner and across pool sizes.
	for _, precondName := range []string{"none", "jac_diag", "jac_block"} {
		for _, workers := range []int{1, 2, 4, 7} {
			pool := par.NewPool(workers).WithGrain(1)
			pf := buildProblem(t, 33, 27, 1, 99)
			pu := buildProblem(t, 33, 27, 1, 99)
			resF, err := SolveCG(pf, Options{Tol: 1e-10, Pool: pool, Precond: fusedPrecondFor(precondName, pf)})
			if err != nil || !resF.Converged {
				t.Fatalf("%s w%d fused: %v (converged=%v)", precondName, workers, err, resF.Converged)
			}
			resU, err := SolveCG(pu, Options{Tol: 1e-10, Pool: pool, Precond: fusedPrecondFor(precondName, pu), DisableFused: true})
			if err != nil || !resU.Converged {
				t.Fatalf("%s w%d unfused: %v", precondName, workers, err)
			}
			dIter := resF.Iterations - resU.Iterations
			if dIter < -1 || dIter > 1 {
				t.Errorf("%s w%d: fused %d iterations vs unfused %d (want ±1)",
					precondName, workers, resF.Iterations, resU.Iterations)
			}
			if d := pf.U.MaxDiff(pu.U); d > 1e-8 {
				t.Errorf("%s w%d: solutions differ by %v", precondName, workers, d)
			}
			pool.Close()
		}
	}
}

func TestFusedMatchesUnfusedChebyshev(t *testing.T) {
	pf := buildProblem(t, 24, 24, 1, 55)
	pu := buildProblem(t, 24, 24, 1, 55)
	mf := precond.NewJacobi(par.Serial, pf.Op)
	mu := precond.NewJacobi(par.Serial, pu.Op)
	resF, err := SolveChebyshev(pf, Options{Tol: 1e-9, EigenCGIters: 8, Precond: mf})
	if err != nil || !resF.Converged {
		t.Fatalf("fused: %v (converged=%v)", err, resF.Converged)
	}
	resU, err := SolveChebyshev(pu, Options{Tol: 1e-9, EigenCGIters: 8, Precond: mu, DisableFused: true})
	if err != nil || !resU.Converged {
		t.Fatalf("unfused: %v", err)
	}
	// The Chebyshev convergence test runs every CheckEvery iterations, so
	// allow one cadence of slack on the iteration count.
	if d := resF.Iterations - resU.Iterations; d < -10 || d > 10 {
		t.Errorf("iterations: fused %d vs unfused %d", resF.Iterations, resU.Iterations)
	}
	if d := pf.U.MaxDiff(pu.U); d > 1e-7 {
		t.Errorf("solutions differ by %v", d)
	}
}

func TestFusedMatchesUnfusedPPCG(t *testing.T) {
	for _, precondName := range []string{"none", "jac_diag"} {
		for _, depth := range []int{1, 2} {
			pf := buildProblem(t, 30, 26, 2, 77)
			pu := buildProblem(t, 30, 26, 2, 77)
			of := Options{Tol: 1e-10, EigenCGIters: 8, InnerSteps: 6, HaloDepth: depth,
				Precond: fusedPrecondFor(precondName, pf)}
			ou := of
			ou.Precond = fusedPrecondFor(precondName, pu)
			ou.DisableFused = true
			resF, err := SolvePPCG(pf, of)
			if err != nil || !resF.Converged {
				t.Fatalf("%s d%d fused: %v (converged=%v)", precondName, depth, err, resF.Converged)
			}
			resU, err := SolvePPCG(pu, ou)
			if err != nil || !resU.Converged {
				t.Fatalf("%s d%d unfused: %v", precondName, depth, err)
			}
			dIter := resF.Iterations - resU.Iterations
			if dIter < -1 || dIter > 1 {
				t.Errorf("%s d%d: fused %d iterations vs unfused %d (want ±1)",
					precondName, depth, resF.Iterations, resU.Iterations)
			}
			if d := pf.U.MaxDiff(pu.U); d > 1e-8 {
				t.Errorf("%s d%d: solutions differ by %v", precondName, depth, d)
			}
		}
	}
}

func TestFusedCGIsDefault(t *testing.T) {
	// The fused engine's only standalone dot pass is the startup ‖b‖²
	// stop baseline; the classic engine records dot passes every
	// iteration.
	for _, disable := range []bool{false, true} {
		p := buildProblem(t, 16, 16, 1, 21)
		c := comm.NewSerial()
		res, err := SolveCG(p, Options{Tol: 1e-9, Comm: c, DisableFused: disable})
		if err != nil || !res.Converged {
			t.Fatalf("DisableFused=%v: %v (converged=%v)", disable, err, res.Converged)
		}
		if gotFused := c.Trace().Dots <= 1; gotFused == disable {
			t.Errorf("DisableFused=%v: fused=%v (dots=%d)", disable, gotFused, c.Trace().Dots)
		}
	}
}

// fakeMultiRank wraps comm.Serial but reports two ranks, so dispatch
// decisions that depend on Comm.Size() can be tested without a hub.
type fakeMultiRank struct{ *comm.Serial }

func (fakeMultiRank) Size() int { return 2 }

func TestFusedJacobiFoldRequiresHaloOnMultiRank(t *testing.T) {
	// precond.NewJacobi cannot evaluate the matrix diagonal on the
	// outermost padded layer, so on a halo-1 grid the ring the fused
	// matvec would read is invalid. Multi-rank runs must fall back to the
	// classic loop (which exchanges pvec instead); halo>=2 grids may fuse.
	for _, tc := range []struct {
		halo      int
		wantFused bool
	}{
		{1, false},
		{2, true},
	} {
		p := buildProblem(t, 16, 16, tc.halo, 21)
		c := &fakeMultiRank{comm.NewSerial()}
		res, err := SolveCG(p, Options{Tol: 1e-9, Comm: c, Precond: precond.NewJacobi(par.Serial, p.Op)})
		if err != nil || !res.Converged {
			t.Fatalf("halo=%d: %v (converged=%v)", tc.halo, err, res.Converged)
		}
		// The fused engine produces every per-iteration dot product inside
		// fused sweeps — its only standalone dot is the startup ‖b‖² stop
		// baseline; the classic engine records standalone dot passes every
		// iteration.
		gotFused := c.Trace().Dots <= 1
		if gotFused != tc.wantFused {
			t.Errorf("halo=%d: fused=%v (dots=%d), want fused=%v",
				tc.halo, gotFused, c.Trace().Dots, tc.wantFused)
		}
	}
}

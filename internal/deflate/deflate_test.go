package deflate

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

// --- Cholesky ---

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] = LLᵀ with L = [[2,0],[1,√2]].
	c, err := NewCholesky([][]float64{{4, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	c.Solve([]float64{8, 7}, x) // A·[1.25, 1.5]ᵀ? verify by residual instead
	if r0 := 4*x[0] + 2*x[1] - 8; math.Abs(r0) > 1e-12 {
		t.Errorf("row 0 residual %v", r0)
	}
	if r1 := 2*x[0] + 3*x[1] - 7; math.Abs(r1) > 1e-12 {
		t.Errorf("row 1 residual %v", r1)
	}
	if c.N() != 2 {
		t.Error("N wrong")
	}
}

func TestCholeskyRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 8, 20} {
		// SPD via BᵀB + n·I.
		b := make([][]float64, n)
		for i := range b {
			b[i] = make([]float64, n)
			for j := range b[i] {
				b[i][j] = rng.NormFloat64()
			}
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				for k := 0; k < n; k++ {
					a[i][j] += b[k][i] * b[k][j]
				}
				if i == j {
					a[i][j] += float64(n)
				}
			}
		}
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		c.Solve(rhs, x)
		for i := 0; i < n; i++ {
			var sum float64
			for j := 0; j < n; j++ {
				sum += a[i][j] * x[j]
			}
			if math.Abs(sum-rhs[i]) > 1e-9 {
				t.Fatalf("n=%d: residual %v at row %d", n, sum-rhs[i], i)
			}
		}
	}
}

func TestCholeskyErrors(t *testing.T) {
	if _, err := NewCholesky(nil); err == nil {
		t.Error("empty matrix must error")
	}
	if _, err := NewCholesky([][]float64{{1, 2}}); err == nil {
		t.Error("non-square must error")
	}
	if _, err := NewCholesky([][]float64{{-1}}); err == nil {
		t.Error("negative pivot must error")
	}
	// Indefinite 2x2.
	if _, err := NewCholesky([][]float64{{1, 2}, {2, 1}}); err == nil {
		t.Error("indefinite matrix must error")
	}
}

// --- Deflation ---

func pipeOperator(t testing.TB, n int) *stencil.Operator2D {
	t.Helper()
	d := problem.CrookedPipeDeck(n, n)
	g := grid.MustGrid2D(n, n, 2, d.XMin, d.XMax, d.YMin, d.YMax)
	den := grid.NewField2D(g)
	en := grid.NewField2D(g)
	if err := problem.Paint(d.States, den, en); err != nil {
		t.Fatal(err)
	}
	den.ReflectHalos(g.Halo)
	op, err := stencil.BuildOperator2D(par.Serial, den, d.InitialTimestep, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func pipeRHS(t *testing.T, op *stencil.Operator2D, n int) *grid.Field2D {
	t.Helper()
	d := problem.CrookedPipeDeck(n, n)
	g := op.Grid
	den := grid.NewField2D(g)
	en := grid.NewField2D(g)
	if err := problem.Paint(d.States, den, en); err != nil {
		t.Fatal(err)
	}
	rhs := grid.NewField2D(g)
	problem.EnergyToU(den, en, rhs)
	return rhs
}

func TestDeflationValidation(t *testing.T) {
	op := pipeOperator(t, 16)
	if _, err := New(par.Serial, nil, op, Geometry{}, Config{BX: 0, BY: 4}); err == nil {
		t.Error("zero subdomains must error")
	}
	if _, err := New(par.Serial, nil, op, Geometry{}, Config{BX: 32, BY: 4}); err == nil {
		t.Error("more subdomains than cells must error")
	}
	d, err := New(par.Serial, nil, op, Geometry{}, Config{BX: 4, BY: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Subdomains() != 16 {
		t.Errorf("subdomains = %d", d.Subdomains())
	}
}

// Levels above 1 selected the removed nested hierarchy: both
// constructors refuse them rather than run the one level silently.
func TestDeflationLevelsAboveOneRejected(t *testing.T) {
	_, err := New(par.Serial, nil, pipeOperator(t, 16), Geometry{}, Config{BX: 4, BY: 4, Levels: 2})
	if err == nil || !strings.Contains(err.Error(), "hierarchy was removed") {
		t.Errorf("2D Levels 2: err = %v, want the removed-hierarchy error", err)
	}
	_, err = New3D(par.Serial, nil, stiffOperator3D(t, 12), Geometry3D{}, Config{BX: 3, BY: 3, BZ: 3, Levels: 2})
	if err == nil || !strings.Contains(err.Error(), "hierarchy was removed") {
		t.Errorf("3D Levels 2: err = %v, want the removed-hierarchy error", err)
	}
}

// A coarse space above MaxSubdomains is refused before E is allocated,
// with E's size in the error.
func TestDeflationCoarseCap(t *testing.T) {
	_, err := New(par.Serial, nil, pipeOperator(t, 128), Geometry{}, Config{BX: 65, BY: 65})
	if err == nil || !strings.Contains(err.Error(), "4225×4225") {
		t.Errorf("65x65 subdomains: err = %v, want the coarse-cap error naming E's size", err)
	}
}

func TestCoarseMatrixSPD(t *testing.T) {
	// New already Cholesky-factors E; building on several operators must
	// succeed (E SPD) including high-contrast ones.
	for _, n := range []int{16, 48} {
		op := pipeOperator(t, n)
		if _, err := New(par.Serial, nil, op, Geometry{}, Config{BX: 4, BY: 4}); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestCoarseCorrectZeroesCoarseResidual(t *testing.T) {
	op := pipeOperator(t, 32)
	g := op.Grid
	defl, err := New(par.Serial, nil, op, Geometry{}, Config{BX: 4, BY: 4})
	if err != nil {
		t.Fatal(err)
	}
	rhs := pipeRHS(t, op, 32)
	u := rhs.Clone()
	r := grid.NewField2D(g)
	u.ReflectHalos(1)
	op.Residual(par.Serial, g.Interior(), u, rhs, r)
	defl.CoarseCorrect(r, u)
	u.ReflectHalos(1)
	op.Residual(par.Serial, g.Interior(), u, rhs, r)
	// Wᵀ r must vanish: block sums of the corrected residual are ~0.
	defl.restrict(r.Data)
	sums := defl.cr
	norm := r.Norm2Interior()
	for c, s := range sums {
		if math.Abs(s) > 1e-10*math.Max(1, norm) {
			t.Errorf("block %d residual sum %v not deflated", c, s)
		}
	}
}

func TestProjectWKillsCoarseComponent(t *testing.T) {
	op := pipeOperator(t, 24)
	defl, err := New(par.Serial, nil, op, Geometry{}, Config{BX: 3, BY: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := op.Grid
	w := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			w.Set(j, k, rng.NormFloat64())
		}
	}
	// After w ← P w... note P projects against the A·W range; the
	// invariant is Wᵀ(P·A·p) = 0 for any p, so test with w = A·p.
	p := w.Clone()
	p.ReflectHalos(1)
	ap := grid.NewField2D(g)
	op.Apply(par.Serial, g.Interior(), p, ap)
	defl.ProjectW(ap)
	defl.restrict(ap.Data)
	sums := defl.cr
	norm := ap.Norm2Interior()
	for c, s := range sums {
		if math.Abs(s) > 1e-9*math.Max(1, norm) {
			t.Errorf("block %d: Wᵀ(PAp) = %v, want 0", c, s)
		}
	}
}

func TestDeflatedCGMatchesPlainCG(t *testing.T) {
	n := 48
	op := pipeOperator(t, n)
	rhs := pipeRHS(t, op, n)

	// Reference: plain CG via the solver package.
	ref := solver.Problem{Op: op, U: rhs.Clone(), RHS: rhs}
	res, err := solver.SolveCG(ref, solver.Options{Tol: 1e-12})
	if err != nil || !res.Converged {
		t.Fatalf("reference CG: %v %+v", err, res)
	}

	defl, err := New(par.Serial, nil, op, Geometry{}, Config{BX: 4, BY: 4})
	if err != nil {
		t.Fatal(err)
	}
	u := rhs.Clone()
	iters, rel, ok, err := defl.solveDeflatedCG(u, rhs, 1e-11, 10000)
	if err != nil || !ok {
		t.Fatalf("deflated CG did not converge: %d iters, rel %v, err %v", iters, rel, err)
	}
	if d := u.MaxDiff(ref.U); d > 1e-7 {
		t.Errorf("deflated solution differs from CG by %v", d)
	}
}

// stiffOperator builds A = I + Δt·L with Δt·λ₂(L) ≫ 1: the near-steady
// regime where the deflatable low-energy modes are actual outliers.
func stiffOperator(t testing.TB, n int) *stencil.Operator2D {
	t.Helper()
	g := grid.MustGrid2D(n, n, 2, 0, 1, 0, 1)
	den := grid.NewField2D(g)
	den.Fill(1)
	op, err := stencil.BuildOperator2D(par.Serial, den, 10.0, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestDeflationReducesIterationsInStiffRegime(t *testing.T) {
	// The point of the future-work §VII direction: removing the low-energy
	// subdomain modes cuts the iteration count. For A = I + Δt·L this
	// requires Δt·λ₂ ≳ 1 (see the package comment); a unit-domain operator
	// with Δt = 10 is deep in that regime.
	n := 64
	op := stiffOperator(t, n)
	g := op.Grid
	rhs := grid.NewField2D(g)
	rhs.FillBounds(grid.Bounds{X0: 0, X1: n / 4, Y0: 0, Y1: n / 4}, 1)

	plain := solver.Problem{Op: op, U: rhs.Clone(), RHS: rhs}
	res, err := solver.SolveCG(plain, solver.Options{Tol: 1e-9})
	if err != nil || !res.Converged {
		t.Fatalf("plain CG: %v", err)
	}

	defl, err := New(par.Serial, nil, op, Geometry{}, Config{BX: 8, BY: 8})
	if err != nil {
		t.Fatal(err)
	}
	u := rhs.Clone()
	iters, _, ok, err := defl.solveDeflatedCG(u, rhs, 1e-9, 10000)
	if err != nil || !ok {
		t.Fatalf("deflated CG did not converge: %v", err)
	}
	if float64(iters) > 0.7*float64(res.Iterations) {
		t.Errorf("deflated CG took %d iterations, plain CG %d — expected ≥30%% reduction", iters, res.Iterations)
	}
	// Solutions agree.
	if d := u.MaxDiff(plain.U); d > 1e-6 {
		t.Errorf("deflated solution differs by %v", d)
	}
}

func TestDeflationNeutralInTimeStepRegime(t *testing.T) {
	// With TeaLeaf's production Δt, λmin(A) = 1 dominates the low end of
	// the spectrum and deflation must not change the iteration count by
	// more than a few percent in either direction — the regime insight
	// documented in the package comment.
	n := 96
	op := pipeOperator(t, n)
	rhs := pipeRHS(t, op, n)
	plain := solver.Problem{Op: op, U: rhs.Clone(), RHS: rhs}
	res, err := solver.SolveCG(plain, solver.Options{Tol: 1e-9})
	if err != nil || !res.Converged {
		t.Fatalf("plain CG: %v", err)
	}
	defl, err := New(par.Serial, nil, op, Geometry{}, Config{BX: 8, BY: 8})
	if err != nil {
		t.Fatal(err)
	}
	u := rhs.Clone()
	iters, _, ok, err := defl.solveDeflatedCG(u, rhs, 1e-9, 10000)
	if err != nil || !ok {
		t.Fatalf("deflated CG did not converge: %v", err)
	}
	if iters > res.Iterations+5 {
		t.Errorf("deflation made things worse: %d vs %d", iters, res.Iterations)
	}
}

func TestDeflatedCGZeroRHS(t *testing.T) {
	op := pipeOperator(t, 16)
	g := op.Grid
	u := grid.NewField2D(g)
	rhs := grid.NewField2D(g)
	defl, err := New(par.Serial, nil, op, Geometry{}, Config{BX: 2, BY: 2})
	if err != nil {
		t.Fatal(err)
	}
	iters, rel, ok, err := defl.solveDeflatedCG(u, rhs, 1e-10, 100)
	if err != nil || !ok || iters != 0 || rel != 0 {
		t.Errorf("zero RHS: iters=%d rel=%v ok=%v err=%v", iters, rel, ok, err)
	}
	if kernels.Dot(par.Serial, g.Interior(), u, u) != 0 {
		t.Error("zero RHS must leave u at zero")
	}
}

// The reference deflated CG loop, rank-invariant: the same stiff problem
// decomposed over 2x2 goroutine ranks must converge in the same number
// of iterations (±1) to the same solution as the single-rank run, with
// the coarse space built collectively over the global mesh.
func TestSolveDeflatedCGRankInvariance(t *testing.T) {
	const n = 32
	const tol = 1e-10

	// Single-rank baseline.
	opS := stiffOperator(t, n)
	gS := opS.Grid
	rhsS := grid.NewField2D(gS)
	rhsS.FillBounds(grid.Bounds{X0: 0, X1: n / 4, Y0: 0, Y1: n / 4}, 1)
	deflS, err := New(par.Serial, nil, opS, Geometry{}, Config{BX: 4, BY: 4})
	if err != nil {
		t.Fatal(err)
	}
	uS := rhsS.Clone()
	itersS, _, okS, err := deflS.solveDeflatedCG(uS, rhsS, tol, 10000)
	if err != nil || !okS {
		t.Fatalf("serial deflated CG did not converge: %v", err)
	}

	part := grid.MustPartition(n, n, 2, 2)
	gg := grid.MustGrid2D(n, n, 2, 0, 1, 0, 1)
	gathered := grid.NewField2D(gg)
	iters := make([]int, part.Ranks())
	err = comm.Run(part, func(c *comm.RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		den := grid.NewField2D(sub)
		den.Fill(1)
		if err := c.Exchange(sub.Halo, den); err != nil {
			return err
		}
		phys := c.Physical()
		op, err := stencil.BuildOperator2D(par.Serial, den, 10.0, stencil.Conductivity,
			stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
		if err != nil {
			return err
		}
		rhs := grid.NewField2D(sub)
		for k := 0; k < sub.NY; k++ {
			for j := 0; j < sub.NX; j++ {
				if ext.X0+j < n/4 && ext.Y0+k < n/4 {
					rhs.Set(j, k, 1)
				}
			}
		}
		defl, err := New(par.Serial, c, op,
			Geometry{GlobalNX: n, GlobalNY: n, OffsetX: ext.X0, OffsetY: ext.Y0},
			Config{BX: 4, BY: 4})
		if err != nil {
			return err
		}
		u := rhs.Clone()
		it, _, ok, err := defl.solveDeflatedCG(u, rhs, tol, 10000)
		if err != nil {
			return err
		}
		if !ok {
			t.Errorf("rank %d: distributed deflated CG did not converge", c.Rank())
		}
		iters[c.Rank()] = it
		var dst *grid.Field2D
		if c.Rank() == 0 {
			dst = gathered
		}
		return c.GatherInterior(u, dst)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, it := range iters {
		if d := it - itersS; d < -1 || d > 1 {
			t.Errorf("rank %d: %d iterations vs serial %d (want ±1)", r, it, itersS)
		}
	}
	if d := gathered.MaxDiff(uS); d > 1e-10 {
		t.Errorf("distributed deflated solution differs from serial by %v", d)
	}
}

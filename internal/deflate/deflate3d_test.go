package deflate

import (
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

// stiffOperator3D builds the 3D near-steady operator A = I + Δt·L with
// Δt·λ₂(L) ≫ 1 on the unit cube.
func stiffOperator3D(t testing.TB, n int) *stencil.Operator3D {
	t.Helper()
	g := grid.UnitGrid3D(n, n, n, 2)
	den := grid.NewField3D(g)
	den.Fill(1)
	den.ReflectHalos(g.Halo)
	op, err := stencil.BuildOperator3D(par.Serial, den, 10.0, stencil.Conductivity, stencil.AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestDeflation3DValidation(t *testing.T) {
	op := stiffOperator3D(t, 12)
	if _, err := New3D(par.Serial, nil, op, Geometry3D{}, Config{BX: 0, BY: 3, BZ: 3}); err == nil {
		t.Error("zero subdomains must error")
	}
	if _, err := New3D(par.Serial, nil, op, Geometry3D{}, Config{BX: 24, BY: 3, BZ: 3}); err == nil {
		t.Error("more subdomains than cells must error")
	}
	if _, err := New3D(par.Serial, nil, op, Geometry3D{}, Config{BX: 1, BY: 1, BZ: 1, Levels: 2}); err == nil {
		t.Error("levels beyond the hierarchy must error")
	}
	d, err := New3D(par.Serial, nil, op, Geometry3D{}, Config{BX: 3, BY: 3, BZ: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Subdomains() != 27 {
		t.Errorf("subdomains = %d", d.Subdomains())
	}
	if d.Levels() != 1 {
		t.Errorf("levels = %d", d.Levels())
	}
}

// Wᵀ(P·A·p) = 0 for any p: the 3D projection must annihilate the coarse
// component of a projected matvec, exactly like the 2D invariant.
func TestProjectW3DKillsCoarseComponent(t *testing.T) {
	op := stiffOperator3D(t, 12)
	defl, err := New3D(par.Serial, nil, op, Geometry3D{}, Config{BX: 3, BY: 3, BZ: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := op.Grid
	p := grid.NewField3D(g)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				p.Set(i, j, k, rng.NormFloat64())
			}
		}
	}
	p.ReflectHalos(1)
	ap := grid.NewField3D(g)
	op.Apply(par.Serial, g.Interior(), p, ap)
	defl.ProjectW(ap)
	defl.restrict(ap.Data)
	sums := defl.cr
	var norm float64
	for _, v := range ap.Data {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for c, s := range sums {
		if math.Abs(s) > 1e-9*math.Max(1, norm) {
			t.Errorf("block %d: Wᵀ(PAp) = %v, want 0", c, s)
		}
	}
}

// 3D deflated CG through the solver composition: converges, matches the
// plain solution, and cuts iterations in the stiff regime — for both the
// two-level and nested hierarchies.
func TestDeflation3DReducesIterations(t *testing.T) {
	const n = 16
	op := stiffOperator3D(t, n)
	g := op.Grid
	rhs := grid.NewField3D(g)
	for k := 0; k < n/4; k++ {
		for j := 0; j < n/4; j++ {
			for i := 0; i < n/4; i++ {
				rhs.Set(i, j, k, 1)
			}
		}
	}
	plain := solver.Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
	plainRes, err := solver.SolveCG3D(plain, solver.Options{Tol: 1e-9})
	if err != nil || !plainRes.Converged {
		t.Fatalf("plain 3D CG: %v %+v", err, plainRes)
	}
	for _, levels := range []int{1, 2} {
		defl, err := New3D(par.Serial, nil, op, Geometry3D{}, Config{BX: 4, BY: 4, BZ: 4, Levels: levels})
		if err != nil {
			t.Fatal(err)
		}
		p := solver.Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := solver.SolveCG3D(p, solver.Options{Tol: 1e-9, Deflation3D: defl})
		if err != nil || !res.Converged {
			t.Fatalf("deflated 3D CG (levels=%d): %v %+v", levels, err, res)
		}
		if float64(res.Iterations) > 0.7*float64(plainRes.Iterations) {
			t.Errorf("levels=%d: deflated 3D CG took %d iterations, plain %d — expected ≥30%% reduction",
				levels, res.Iterations, plainRes.Iterations)
		}
		if d := p.U.MaxDiff(plain.U); d > 1e-6 {
			t.Errorf("levels=%d: deflated 3D solution differs by %v", levels, d)
		}
	}
}

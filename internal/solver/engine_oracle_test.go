package solver_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/problem"
	"tealeaf/internal/propcheck"
	"tealeaf/internal/solver"
)

// engineMatchesClassic solves the first time step of d with the CG engine
// and with the textbook PCG oracle, from the same initial guess and with
// the deck's preconditioner, deflation and halo depth, and requires the
// two solutions to agree at propcheck.TolEngine with legTol's scaling:
// max(TolEngine, 150·eps) relative to the solution's magnitude. Whatever
// solver the deck names, both legs run CG.
func engineMatchesClassic(t *testing.T, d *deck.Deck) {
	t.Helper()
	var diff, scale float64
	if d.Dims == 3 {
		inst, err := core.NewSerial3D(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		rhs := grid.NewField3D(inst.Grid)
		problem.EnergyToU3D(inst.Density, inst.Energy, rhs)
		pe := solver.Problem3D{Op: inst.Op, U: rhs.Clone(), RHS: rhs}
		po := solver.Problem3D{Op: inst.Op, U: rhs.Clone(), RHS: rhs}
		solveBoth(t, d,
			func() (solver.Result, error) { return solver.SolveCG3D(pe, *inst.Options()) },
			func() (solver.Result, error) { return solver.SolveCGClassic3D(po, *inst.Options()) })
		diff, scale = pe.U.MaxDiff(po.U), po.U.MaxDiff(grid.NewField3D(inst.Grid))
	} else {
		inst, err := core.NewSerial(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		rhs := grid.NewField2D(inst.Grid)
		problem.EnergyToU(inst.Density, inst.Energy, rhs)
		pe := solver.Problem{Op: inst.Op, U: rhs.Clone(), RHS: rhs}
		po := solver.Problem{Op: inst.Op, U: rhs.Clone(), RHS: rhs}
		solveBoth(t, d,
			func() (solver.Result, error) { return solver.SolveCG(pe, *inst.Options()) },
			func() (solver.Result, error) { return solver.SolveCGClassic(po, *inst.Options()) })
		diff, scale = pe.U.MaxDiff(po.U), po.U.MaxDiff(grid.NewField2D(inst.Grid))
	}
	tol := math.Max(propcheck.TolEngine, 150*d.Eps) * math.Max(scale, 1)
	if diff > tol {
		t.Errorf("engine and oracle differ by %.3e (tol %.3e) on\n%s", diff, tol, d.Format())
	}
}

// solveBoth runs the engine and the oracle leg; both must converge.
func solveBoth(t *testing.T, d *deck.Deck, engine, oracle func() (solver.Result, error)) {
	t.Helper()
	for _, leg := range []struct {
		name  string
		solve func() (solver.Result, error)
	}{{"engine", engine}, {"oracle", oracle}} {
		res, err := leg.solve()
		if err != nil || !res.Converged {
			t.Fatalf("%s: %v (converged=%v after %d iterations) on\n%s", leg.name, err, res.Converged, res.Iterations, d.Format())
		}
	}
}

// TestEngineMatchesClassic covers every engine branch: 2D and 3D ×
// none/jac_diag/jac_block × deflated/plain. Each combination takes the
// next generated deck of its dimensionality, with the preconditioner and
// deflation set (and the halo depth dropped to 1 for jac_block, which
// deep halos reject); the generator never deflates a 3D deck on its own.
func TestEngineMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range []int{2, 3} {
		for _, pc := range []string{"none", "jac_diag", "jac_block"} {
			for _, deflated := range []bool{false, true} {
				t.Run(fmt.Sprintf("%dD/%s/deflated=%v", dims, pc, deflated), func(t *testing.T) {
					d := propcheck.Gen(rng)
					for d.Dims != dims {
						d = propcheck.Gen(rng)
					}
					d.Precond = pc
					if pc == "jac_block" {
						d.HaloDepth = 1
					}
					if deflated && !d.UseDeflation {
						d.DeflationBlocks, d.DeflationLevels = 2, 1
					}
					d.UseDeflation = deflated
					if err := d.Validate(); err != nil {
						t.Fatalf("deck invalid: %v\n%s", err, d.Format())
					}
					engineMatchesClassic(t, d)
				})
			}
		}
	}
}

// FuzzEngineMatchesClassic draws decks from the propcheck generator, one
// per seed, and holds the CG engine to the oracle on each.
func FuzzEngineMatchesClassic(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		engineMatchesClassic(t, propcheck.Gen(rand.New(rand.NewSource(seed))))
	})
}

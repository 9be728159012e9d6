package solver_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
	"tealeaf/internal/propcheck"
	"tealeaf/internal/solver"
)

// pairOut is what the agreement bounds read from one deck's engine and
// oracle legs, both solved from the same initial guess (the first time
// step's right-hand side).
type pairOut struct {
	res [2]solver.Result // engine, oracle
	// rTrue is each leg's true residual ‖b − A·x‖₂, re-measured after the
	// solve; rec its recurred residual at the stop, History's last entry
	// scaled by r0.
	rTrue, rec [2]float64
	// r0 is the stop rule's baseline max(‖r₀‖₂, ‖b‖₂), r₀ taken after
	// the initial coarse correction on a deflated solve.
	r0 float64
	// diff2 and diffMax are ‖x_e − x_o‖ in the 2- and max-norm; scale is
	// the solution's max-norm.
	diff2, diffMax, scale float64
	tol                   float64 // the deck's stop tolerance
}

// solvePair solves the first time step of d with engine and with oracle,
// each under the instance's options as opts adjusts them.
func solvePair(t *testing.T, d *deck.Deck, opts func(solver.Options) solver.Options,
	engine, oracle func(solver.Problem, solver.Options) (solver.Result, error),
	engine3, oracle3 func(solver.Problem3D, solver.Options) (solver.Result, error)) pairOut {
	t.Helper()
	var p pairOut
	if d.Dims == 3 {
		inst, err := core.NewSerial3D(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := opts(*inst.Options())
		g, in := inst.Grid, inst.Grid.Interior()
		rhs := grid.NewField3D(g)
		problem.EnergyToU3D(inst.Density, inst.Energy, rhs)
		resid := func(u *grid.Field3D) *grid.Field3D {
			u.ReflectHalos(1)
			r := grid.NewField3D(g)
			inst.Op.Residual(par.Serial, in, u, rhs, r)
			return r
		}
		norm := func(f *grid.Field3D) float64 { return math.Sqrt(kernels.Dot3D(par.Serial, in, f, f)) }
		x0 := rhs.Clone()
		if o.Deflation3D != nil {
			o.Deflation3D.CoarseCorrect(resid(x0), x0)
		}
		p.r0 = math.Max(norm(resid(x0)), norm(rhs))
		legs := [2]solver.Problem3D{{Op: inst.Op, U: rhs.Clone(), RHS: rhs}, {Op: inst.Op, U: rhs.Clone(), RHS: rhs}}
		for i, solve := range []func(solver.Problem3D, solver.Options) (solver.Result, error){engine3, oracle3} {
			p.res[i] = mustConverge(t, d, i, func() (solver.Result, error) { return solve(legs[i], o) })
			p.rTrue[i] = norm(resid(legs[i].U))
		}
		diff := legs[0].U.Clone()
		kernels.Axpy3D(par.Serial, in, -1, legs[1].U, diff)
		p.diff2, p.diffMax, p.scale = norm(diff), legs[0].U.MaxDiff(legs[1].U), legs[1].U.MaxDiff(grid.NewField3D(g))
		p.tol = o.Tol
	} else {
		inst, err := core.NewSerial(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := opts(*inst.Options())
		g, in := inst.Grid, inst.Grid.Interior()
		rhs := grid.NewField2D(g)
		problem.EnergyToU(inst.Density, inst.Energy, rhs)
		resid := func(u *grid.Field2D) *grid.Field2D {
			u.ReflectHalos(1)
			r := grid.NewField2D(g)
			inst.Op.Residual(par.Serial, in, u, rhs, r)
			return r
		}
		norm := func(f *grid.Field2D) float64 { return math.Sqrt(kernels.Dot(par.Serial, in, f, f)) }
		x0 := rhs.Clone()
		if o.Deflation != nil {
			o.Deflation.CoarseCorrect(resid(x0), x0)
		}
		p.r0 = math.Max(norm(resid(x0)), norm(rhs))
		legs := [2]solver.Problem{{Op: inst.Op, U: rhs.Clone(), RHS: rhs}, {Op: inst.Op, U: rhs.Clone(), RHS: rhs}}
		for i, solve := range []func(solver.Problem, solver.Options) (solver.Result, error){engine, oracle} {
			p.res[i] = mustConverge(t, d, i, func() (solver.Result, error) { return solve(legs[i], o) })
			p.rTrue[i] = norm(resid(legs[i].U))
		}
		diff := legs[0].U.Clone()
		kernels.Axpy(par.Serial, in, -1, legs[1].U, diff)
		p.diff2, p.diffMax, p.scale = norm(diff), legs[0].U.MaxDiff(legs[1].U), legs[1].U.MaxDiff(grid.NewField2D(g))
		p.tol = o.Tol
	}
	for i, r := range p.res {
		if h := r.History; len(h) > 0 {
			p.rec[i] = h[len(h)-1] * p.r0
		}
	}
	return p
}

// mustConverge runs leg i (0 the engine, 1 the oracle), which must
// converge.
func mustConverge(t *testing.T, d *deck.Deck, i int, solve func() (solver.Result, error)) solver.Result {
	t.Helper()
	res, err := solve()
	if err != nil || !res.Converged {
		t.Fatalf("%s: %v (converged=%v after %d iterations) on\n%s", [2]string{"engine", "oracle"}[i], err, res.Converged, res.Iterations, d.Format())
	}
	return res
}

// checkTrueResiduals requires each leg's true residual to lie within the
// stop rule's 10× margin of Tol·r0 (the margin a deflated solve's
// re-measure is allowed): a leg that reports convergence on its
// recurred residual must have solved the step.
func checkTrueResiduals(t *testing.T, d *deck.Deck, p pairOut) {
	t.Helper()
	for i, r := range p.rTrue {
		if r > 10*p.tol*p.r0 {
			t.Errorf("%s: true residual %.3e above 10·Tol·r0 = %.3e on\n%s", [2]string{"engine", "oracle"}[i], r, 10*p.tol*p.r0, d.Format())
		}
	}
}

// checkAgreement holds a pair to the engine-agreement bounds:
// checkTrueResiduals, then agreement of the two solutions within the
// larger of two bounds:
//
//   - max(TolEngine, 150·eps) in the max-norm, relative to the
//     solution's magnitude (legTol's scaling);
//   - 2·Tol·r0 plus both legs' measured recurred-to-true gaps in the
//     2-norm. λ_min(A) ≥ 1 for A = I + Δt·L, so ‖x − x*‖₂ ≤ ‖b − A·x‖₂
//     for either leg, and a leg that stopped at recurred residual
//     ≤ Tol·r0 has a true one ≤ Tol·r0 + its gap.
//
// The first is sharp where both legs stop well inside the tolerance;
// the second where one stops just inside it on a stiff deck and the
// other a further iteration on, and the legs can then differ by far
// more than 150·eps relative while both solve the step.
func checkAgreement(t *testing.T, d *deck.Deck, p pairOut) {
	t.Helper()
	checkTrueResiduals(t, d, p)
	maxTol := math.Max(propcheck.TolEngine, 150*d.Eps) * math.Max(p.scale, 1)
	bound := 2*p.tol*p.r0 + math.Abs(p.rTrue[0]-p.rec[0]) + math.Abs(p.rTrue[1]-p.rec[1])
	if p.diffMax > maxTol && p.diff2 > bound {
		t.Errorf("engine and oracle differ by %.3e max-norm (tol %.3e) and %.3e 2-norm (bound %.3e) on\n%s",
			p.diffMax, maxTol, p.diff2, bound, d.Format())
	}
}

// depth1 runs every leg at halo depth 1: CG exchanges at depth 1, and
// a PPCG deck's halo depth is its inner matrix-powers depth.
func depth1(o solver.Options) solver.Options {
	o.HaloDepth = 1
	return o
}

func asIs(o solver.Options) solver.Options { return o }

// cgPair solves the first time step of d with the CG engine and with the
// textbook PCG oracle, from the same initial guess and with the deck's
// preconditioner, deflation and grid. Whatever solver the deck names,
// both legs run CG.
func cgPair(t *testing.T, d *deck.Deck) pairOut {
	t.Helper()
	return solvePair(t, d, depth1, solver.SolveCG, solver.SolveCGClassic, solver.SolveCG3D, solver.SolveCGClassic3D)
}

// ppcgPair is cgPair for PPCG at the deck's halo depth: the engine
// against the textbook PPCG oracle.
func ppcgPair(t *testing.T, d *deck.Deck) pairOut {
	t.Helper()
	return solvePair(t, d, asIs, solver.SolvePPCG, solver.SolvePPCGClassic, solver.SolvePPCG3D, solver.SolvePPCGClassic3D)
}

// genCase draws the next generated deck of dimensionality dims from rng
// and sets its preconditioner and deflation (the halo depth dropped to 1
// for jac_block, which deep halos reject); the generator never deflates
// a 3D deck on its own.
func genCase(t *testing.T, rng *rand.Rand, dims int, pc string, deflated bool) *deck.Deck {
	t.Helper()
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
	return d
}

// TestEngineMatchesClassic covers every engine branch: 2D and 3D ×
// none/jac_diag/jac_block × deflated/plain, each on the next generated
// deck of its dimensionality.
func TestEngineMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range []int{2, 3} {
		for _, pc := range []string{"none", "jac_diag", "jac_block"} {
			for _, deflated := range []bool{false, true} {
				t.Run(fmt.Sprintf("%dD/%s/deflated=%v", dims, pc, deflated), func(t *testing.T) {
					d := genCase(t, rng, dims, pc, deflated)
					checkAgreement(t, d, cgPair(t, d))
				})
			}
		}
	}
}

// FuzzEngineMatchesClassic draws decks from the propcheck generator, one
// per seed, and holds the CG engine to the oracle on each (and PPCG to
// its oracle on a ppcg deck). Seeds 1054 and -1189 draw decks on which
// the two CG legs stop three iterations apart and differ by more than
// the max-norm tolerance, while both meet the 2-norm bound.
func FuzzEngineMatchesClassic(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Add(int64(1054))
	f.Add(int64(-1189))
	f.Fuzz(func(t *testing.T, seed int64) {
		d := propcheck.Gen(rand.New(rand.NewSource(seed)))
		checkAgreement(t, d, cgPair(t, d))
		if d.Solver == "ppcg" {
			checkAgreement(t, d, ppcgPair(t, d))
		}
	})
}

// TestPPCGEngineMatchesTextbook holds PPCG on the CG engine to the
// textbook PPCG outer loop it replaced (classic_test.go) over 2D and 3D ×
// none/jac_diag/jac_block × plain/deflated × inner halo depth 1 and 4
// (jac_block at depth 1 only, which deep halos reject), each on the next
// generated deck of its dimensionality. Both legs must converge, with
// true residuals inside checkTrueResiduals' margin — a plain engine solve
// at a reported residual within Tol — and, since
// λ_min(A) ≥ 1, each solution lies within its true residual of the exact
// one in the 2-norm, so the two must lie within the sum of theirs.
func TestPPCGEngineMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range []int{2, 3} {
		for _, pc := range []string{"none", "jac_diag", "jac_block"} {
			for _, deflated := range []bool{false, true} {
				for _, depth := range []int{1, 4} {
					if pc == "jac_block" && depth > 1 {
						continue
					}
					t.Run(fmt.Sprintf("%dD/%s/deflated=%v/depth=%d", dims, pc, deflated, depth), func(t *testing.T) {
						d := genCase(t, rng, dims, pc, deflated)
						d.Solver, d.HaloDepth = "ppcg", depth
						if err := d.Validate(); err != nil {
							t.Fatalf("deck invalid: %v\n%s", err, d.Format())
						}
						p := ppcgPair(t, d)
						checkTrueResiduals(t, d, p)
						if f := p.res[0].FinalResidual; !deflated && f > p.tol {
							t.Errorf("engine: converged at relative residual %.3e, above Tol %.3e, on\n%s", f, p.tol, d.Format())
						}
						if bound := p.rTrue[0] + p.rTrue[1]; p.diff2 > bound {
							t.Errorf("engine and textbook PPCG differ by %.3e in the 2-norm, above ‖r_e‖ + ‖r_o‖ = %.3e on\n%s", p.diff2, bound, d.Format())
						}
					})
				}
			}
		}
	}
}

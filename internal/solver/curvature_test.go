package solver_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/problem"
	"tealeaf/internal/propcheck"
	"tealeaf/internal/solver"
)

// curvatureC is c in the bound |δ_merged − δ_twoPass| ≤ c·ε·S that
// TestDeflatedCurvatureMatchesTwoPass holds, with S = Σ|z_i·w_i| +
// Σ|z_i·v_i| and v = A·W·λ. Derivation, to first order in ε: both
// curvatures evaluate the one quadratic form z·(w − v) on the same
// computed w, the same restriction b = Wᵀ·w and the same λ. The two-pass
// form rounds each w_i − v_i and sums the n products z_i·(w_i − v_i);
// the merged form sums the n products z_i·w_i and subtracts bᵀλ, which
// differs from Σ z_i·v_i only by the rounding of w itself —
// bᵀλ − z·v = Σ_i (w_i − (A·z)_i)·λ_c(i), the face-flux operator being
// exactly symmetric — and by the rounding of b and of bᵀλ. Every one of
// these is a fixed-lane blocked sum, whose error is ε·Σ|terms| times a
// factor that is the chain length in the worst case and, for roundings
// of varying sign, grows like its square root: at most √576 = 24 here
// (a generated 2D band of 48×48 cells in 4 lanes is the longest chain).
// The terms of all of them are bounded by S's, the stencil's few
// roundings per cell taken at the size of the Σ|z_i·v_i| term. c allows
// four such chains — the two forms' sums, the restriction and the
// stencil term — at 24 each.
const curvatureC = 96

// TestDeflatedCurvatureMatchesTwoPass holds the deflated CG engine's
// curvature δ − bᵀλ, formed from the coarse solve without a sweep,
// against the projection it replaced — the copy of w projected by the
// correction sweep and z·(P·w) re-measured from it — at every startup
// and iteration of real solves: propcheck.Gen decks made deflated (2 or
// 4 blocks per axis), 2D and 3D, on 1, 2 and 4 Hub ranks, with none,
// jac_diag and jac_block.
func TestDeflatedCurvatureMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	worst, total := 0.0, 0
	for _, dims := range []int{2, 3} {
		for _, pre := range []string{"none", "jac_diag", "jac_block"} {
			d := deflatedDeck(rng, dims)
			d.Precond = pre
			for _, ranks := range []int{1, 2, 4} {
				name := fmt.Sprintf("%dD/%s/ranks=%d", dims, pre, ranks)
				var mu sync.Mutex
				checks := 0
				check := func(merged, twoPass, scale float64) {
					mu.Lock()
					defer mu.Unlock()
					checks++
					bound := curvatureC * 0x1p-52 * scale
					diff := math.Abs(merged - twoPass)
					if !(diff <= bound) {
						t.Errorf("%s: merged δ %v, two-pass %v: |Δ| %.3e > c·ε·S %.3e", name, merged, twoPass, diff, bound)
					}
					if scale > 0 {
						worst = max(worst, diff/(0x1p-52*scale))
					}
				}
				iters := 0
				if err := probeSolve(d, ranks, &iters, check); err != nil {
					t.Fatalf("%s: %v\n%s", name, err, d.Format())
				}
				if iters == 0 || checks != ranks*(iters+1) {
					t.Errorf("%s: %d curvatures checked over %d iterations on %d ranks, want the startup's and every iteration's on every rank",
						name, checks, iters, ranks)
				}
				total += checks
			}
		}
	}
	t.Logf("%d curvatures; largest |δ_merged − δ_twoPass| / (ε·S): %.3g (c = %d)", total, worst, curvatureC)
}

// deflatedDeck draws propcheck decks until one has dims dimensions, room
// for deflation blocks and something to solve, then makes it a deflated
// CG deck.
func deflatedDeck(rng *rand.Rand, dims int) *deck.Deck {
	for {
		d := propcheck.Gen(rng)
		// Two states or more: a uniform deck is solved at startup.
		if d.Dims != dims || len(d.States) < 2 || min(d.XCells, d.YCells) < 8 || (dims == 3 && d.ZCells < 8) {
			continue
		}
		d.Solver, d.HaloDepth = "cg", 1
		d.UseDeflation = true
		d.DeflationBlocks = 2 << rng.Intn(2)
		d.EndStep = 1
		return d
	}
}

// probeSolve solves d's first time step with SolveCGProbed on ranks Hub
// ranks (a 2×1 or 2×2(×1) layout), every rank checking its curvatures,
// and sets iters to rank 0's iteration count.
func probeSolve(d *deck.Deck, ranks int, iters *int, check func(merged, twoPass, scale float64)) error {
	px, py := min(ranks, 2), max(ranks/2, 1)
	if d.Dims == 3 {
		part, err := grid.NewPartition3D(d.XCells, d.YCells, d.ZCells, px, py, 1)
		if err != nil {
			return err
		}
		return comm.Run3D(part, func(c *comm.RankComm) error {
			gg, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, core.HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
			if err != nil {
				return err
			}
			e := part.ExtentOf(c.Rank())
			sub, err := gg.Sub(e.X0, e.X1, e.Y0, e.Y1, e.Z0, e.Z1)
			if err != nil {
				return err
			}
			inst, err := core.NewInstance3D(d, sub, nil, c)
			if err != nil {
				return err
			}
			rhs := grid.NewField3D(inst.Grid)
			problem.EnergyToU3D(inst.Density, inst.Energy, rhs)
			res, err := solver.SolveCGProbed3D(solver.Problem3D{Op: inst.Op, U: rhs.Clone(), RHS: rhs}, *inst.Options(), check)
			if c.Rank() == 0 {
				*iters = res.Iterations
			}
			return err
		})
	}
	part, err := grid.NewPartition(d.XCells, d.YCells, px, py)
	if err != nil {
		return err
	}
	return comm.Run(part, func(c *comm.RankComm) error {
		gg, err := grid.NewGrid2D(d.XCells, d.YCells, core.HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax)
		if err != nil {
			return err
		}
		e := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(e.X0, e.X1, e.Y0, e.Y1)
		if err != nil {
			return err
		}
		inst, err := core.NewInstance(d, sub, nil, c)
		if err != nil {
			return err
		}
		rhs := grid.NewField2D(inst.Grid)
		problem.EnergyToU(inst.Density, inst.Energy, rhs)
		res, err := solver.SolveCGProbed(solver.Problem{Op: inst.Op, U: rhs.Clone(), RHS: rhs}, *inst.Options(), check)
		if c.Rank() == 0 {
			*iters = res.Iterations
		}
		return err
	})
}

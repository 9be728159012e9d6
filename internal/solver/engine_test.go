package solver

import (
	"fmt"
	"testing"

	"tealeaf/internal/stats"
)

// cgProfile is a CG solve's trace, counted as what the engine pins.
type cgProfile struct {
	matvecs, vectorPasses, dots, preconds, reductions, depth1Exchanges, exchanges int
}

func profileOf(tr stats.Trace) cgProfile {
	return cgProfile{tr.Matvecs, tr.VectorPasses, tr.Dots, tr.PrecondApplies,
		tr.Reductions, tr.ExchangesByDepth[1], tr.HaloExchanges}
}

// TestBlockJacobiCGTraceCounts pins the explicit-z iteration a
// preconditioner that does not fold runs (jac_block: 2D strips, 3D
// z-lines), on one and two ranks: ONE reduction round and ONE depth-1
// exchange (of z) per iteration, against the textbook loop's two rounds.
// Per iteration the work is three vector sweeps (the two direction
// recurrences, then x and r together), the block solve, the matvec with
// δ fused in and one dot sweep for γ and ‖r‖². Startup adds the residual
// matvec, the preconditioned matvec with its dot sweep, the ‖b‖² stop
// baseline's dot and round, and the exchanges of x and z.
func TestBlockJacobiCGTraceCounts(t *testing.T) {
	v := engineVariant{name: "jac_block", block: true}
	for _, dims := range []int{2, 3} {
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%dD/ranks=%d", dims, ranks), func(t *testing.T) {
				var iters int
				var tr stats.Trace
				if dims == 2 {
					iters, _, tr = rankRun2D(t, v, ranks, 1)
				} else {
					iters, _, tr = rankRun3D(t, v, ranks, 1)
				}
				want := cgProfile{
					matvecs: iters + 2, vectorPasses: 3 * iters, dots: iters + 2,
					preconds: iters + 1, reductions: iters + 2,
					depth1Exchanges: iters + 2, exchanges: iters + 2,
				}
				if got := profileOf(tr); got != want {
					t.Errorf("%d iterations: trace %+v, want %+v", iters, got, want)
				}
			})
		}
	}
}

// TestBlockJacobiCGMatchesOracle: the explicit-z engine and the textbook
// PCG oracle agree on jac_block, 2D and 3D, one and two ranks — same
// iteration count to ±1 and the same solution to 1e-8.
func TestBlockJacobiCGMatchesOracle(t *testing.T) {
	engine := engineVariant{name: "jac_block", block: true}
	oracle := engineVariant{name: "jac_block-oracle", block: true, oracle: true}
	for _, ranks := range []int{1, 2} {
		ei, eu, _ := rankRun2D(t, engine, ranks, 1)
		oi, ou, _ := rankRun2D(t, oracle, ranks, 1)
		if d := ei - oi; d < -1 || d > 1 || eu.MaxDiff(ou) > 1e-8 {
			t.Errorf("2D ranks=%d: engine %d iterations vs oracle %d, solutions differ by %v",
				ranks, ei, oi, eu.MaxDiff(ou))
		}
		ei3, eu3, _ := rankRun3D(t, engine, ranks, 1)
		oi3, ou3, _ := rankRun3D(t, oracle, ranks, 1)
		if d := ei3 - oi3; d < -1 || d > 1 || eu3.MaxDiff(ou3) > 1e-8 {
			t.Errorf("3D ranks=%d: engine %d iterations vs oracle %d, solutions differ by %v",
				ranks, ei3, oi3, eu3.MaxDiff(ou3))
		}
	}
}

// TestFoldedJacobiHaloOneOnRanks: jac_diag on a halo-1 grid across rank
// boundaries. The folded sweeps read minv one cell beyond the interior,
// which the Jacobi constructor cannot evaluate on a halo-1 grid, so the
// engine exchanges minv once before the solve; after that the iteration
// is the usual two-sweep one beside a depth-1 neighbour — one round and
// one depth-1 exchange (of r) per iteration — and it matches the serial
// textbook PCG oracle on the same grid.
func TestFoldedJacobiHaloOneOnRanks(t *testing.T) {
	engine := engineVariant{name: "halo1", halo: 1}
	oracle := engineVariant{name: "halo1-oracle", halo: 1, oracle: true}
	oi, ou, _ := rankRun2D(t, oracle, 1, 1)
	oi3, ou3, _ := rankRun3D(t, oracle, 1, 1)
	for _, ranks := range []int{2, 4} {
		iters, u, tr := rankRun2D(t, engine, ranks, 1)
		iters3, u3, tr3 := rankRun3D(t, engine, ranks, 1)
		for _, c := range []struct {
			label     string
			iters, oi int
			diff      float64
			tr        stats.Trace
		}{
			{fmt.Sprintf("2D/ranks=%d", ranks), iters, oi, u.MaxDiff(ou), tr},
			{fmt.Sprintf("3D/ranks=%d", ranks), iters3, oi3, u3.MaxDiff(ou3), tr3},
		} {
			// Startup: the minv exchange, x, r; then r once per iteration.
			if c.tr.Reductions != c.iters+2 || c.tr.ExchangesByDepth[1] != c.iters+3 || c.tr.HaloExchanges != c.iters+3 {
				t.Errorf("%s: %d reductions, %d exchanges (by depth %v) over %d iterations, want %d and %d at depth 1",
					c.label, c.tr.Reductions, c.tr.HaloExchanges, c.tr.ExchangesByDepth, c.iters, c.iters+2, c.iters+3)
			}
			if d := c.iters - c.oi; d < -2 || d > 2 || c.diff > 1e-8 {
				t.Errorf("%s: %d iterations vs serial oracle %d, solutions differ by %v", c.label, c.iters, c.oi, c.diff)
			}
		}
	}
}

package problem_test

// External test package: core imports problem for painting, so the
// gallery goldens — which need a full solve — live outside the import
// cycle.

import (
	"math"
	"testing"

	"tealeaf/internal/core"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

type galleryGolden struct {
	iters int     // exact: reductions are deterministic (PR 8)
	ie    float64 // final internal energy, pinned to 1e-12 relative
}

// The pins were measured on the serial reference path. Iteration counts
// are exact on purpose: any solver change that shifts convergence on
// these decks — fuzz-promoted precisely because they are the hardest —
// must show up as a conscious golden update, not silent drift.
// deflated-points was re-pinned by PR 14 (face-flux projector): 824 → 826
// iterations (+0.24 %), energy 5.709657009788449e+01 → …448e+01 (2e-16
// relative) — the projected iterates differ in the last bits.
// deflated-points and near-steady were re-pinned by PR 29, which deleted
// the pipelined engine both decks named: each now runs the fused engine,
// pinned to what the parent's fused engine gave on the same decks.
// deflated-points 826 → 819 iterations, energy 5.709657009788448e+01
// unchanged (57.096570097884481 to the last digit); near-steady
// 0 → 0 iterations, energy 1.687500000000000e+01 unchanged.
// deflated-points was re-pinned when deflated CG took its projection
// into one pass and one round (curvature δ − bᵀλ from the coarse solve):
// 819 → 820 iterations, energy unchanged at 5.709657009788448e+01 to
// 1e-12.
var galleryGoldens = map[string]galleryGolden{
	"hot-strip":       {iters: 426, ie: 2.660088621857170e+02},
	"deflated-points": {iters: 820, ie: 5.709657009788448e+01},
	"near-steady":     {iters: 0, ie: 1.687500000000000e+01},
}

func TestGalleryGoldens(t *testing.T) {
	for _, g := range problem.GalleryDecks() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			want, ok := galleryGoldens[g.Name]
			if !ok {
				t.Fatalf("no golden recorded for gallery deck %q", g.Name)
			}
			if err := g.Deck.Validate(); err != nil {
				t.Fatalf("deck invalid: %v", err)
			}
			inst, err := core.NewSerial(g.Deck, par.Serial)
			if err != nil {
				t.Fatal(err)
			}
			ie0 := inst.Summarise().InternalEnergy
			sum, err := inst.Run(g.Deck.Steps())
			if err != nil {
				t.Fatal(err)
			}
			if sum.TotalIterations != want.iters {
				t.Errorf("iterations = %d, want %d", sum.TotalIterations, want.iters)
			}
			if rel := math.Abs(sum.InternalEnergy-want.ie) / want.ie; rel > 1e-12 {
				t.Errorf("internal energy = %.15e, want %.15e (rel %.2e)", sum.InternalEnergy, want.ie, rel)
			}
			// All gallery decks conserve to FP roundoff (reflecting
			// boundaries).
			if drift := math.Abs(sum.InternalEnergy-ie0) / ie0; drift > 1e-12 {
				t.Errorf("conservation drift %.3e above roundoff", drift)
			}
		})
	}
}

// TestGalleryNearSteadyZeroIterations pins the fuzz-found startup
// pathology fix in isolation: a uniform deck's residual is pure stencil
// roundoff, and the solver must recognise ‖r₀‖ ≤ 10·tol·‖b‖ and stop at
// zero iterations with the field untouched — before the fix this deck
// failed outright with "solver did not converge".
func TestGalleryNearSteadyZeroIterations(t *testing.T) {
	d := problem.GalleryNearSteadyDeck()
	inst, err := core.NewSerial(d, par.Serial)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := inst.Run(d.Steps())
	if err != nil {
		t.Fatalf("near-steady deck must converge trivially, got: %v", err)
	}
	if sum.TotalIterations != 0 {
		t.Errorf("iterations = %d, want 0 (startup early exit)", sum.TotalIterations)
	}
	lo, hi := inst.Energy.MinMaxInterior()
	if lo != 0.75 || hi != 0.75 {
		t.Errorf("energy = [%v,%v], want the untouched uniform 0.75", lo, hi)
	}
}

// TestGalleryStiffness sanity-checks the stiffness figures quoted in the
// constructors' doc comments.
func TestGalleryStiffness(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rx     float64
		lo, hi float64
	}{
		{"hot-strip", problem.GalleryStiffness(problem.GalleryHotStripDeck()), 5, 15},
		{"deflated-points", problem.GalleryStiffness(problem.GalleryDeflatedPointsDeck()), 50, 100},
		{"near-steady", problem.GalleryStiffness(problem.GalleryNearSteadyDeck()), 30, 80},
	} {
		if tc.rx < tc.lo || tc.rx > tc.hi {
			t.Errorf("%s: rx = %.2f outside documented regime [%g,%g]", tc.name, tc.rx, tc.lo, tc.hi)
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"tealeaf/internal/deck"
	"tealeaf/internal/problem"
)

// Golden rank-invariance for distributed deflation, exactly the PR's
// acceptance matrix: tl_use_deflation decks solved under RunDistributed
// and RunDistributed3D on the Hub and TCP backends, for CG and PPCG,
// across ranks {1, 2, 4} — every combination pinned against its
// single-rank baseline (gathered energy field within 1e-10, total
// iterations within ±1 per step). The stiff decks put the solve in the
// regime where the projector actually bites, so a coarse-space bug shows
// up as an iteration-count or solution divergence, not a no-op.

func stiffDeflated2D(solver string) *deck.Deck {
	d := problem.StiffDeck(32)
	d.Solver = solver
	d.UseDeflation = true
	d.DeflationBlocks = 4
	return d
}

func stiffDeflated3D(solver string) *deck.Deck {
	d := problem.StiffDeck3D(12)
	d.Solver = solver
	d.UseDeflation = true
	d.DeflationBlocks = 4
	return d
}

func TestDeflationRankInvariance2D(t *testing.T) {
	const steps = 2
	layouts := map[int][2]int{2: {2, 1}, 4: {2, 2}}
	for _, solver := range []string{"cg", "ppcg"} {
		ref, err := RunDistributed(stiffDeflated2D(solver), 1, 1, steps, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", solver, err)
		}
		for ranks, pxpy := range layouts {
			for _, backend := range []Backend{BackendHub, BackendTCP} {
				name := fmt.Sprintf("%s ranks=%d %s", solver, ranks, backend)
				res, err := RunDistributed(stiffDeflated2D(solver),
					pxpy[0], pxpy[1], steps, 1, WithBackend(backend))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := res.Energy.MaxDiff(ref.Energy); d > 1e-10 {
					t.Errorf("%s: energy differs from single-rank by %v", name, d)
				}
				di := res.Summary.TotalIterations - ref.Summary.TotalIterations
				if di < -steps || di > steps {
					t.Errorf("%s: %d total iterations vs single-rank %d (want ±1 per step)",
						name, res.Summary.TotalIterations, ref.Summary.TotalIterations)
				}
			}
		}
	}
}

func TestDeflationRankInvariance3D(t *testing.T) {
	const steps = 1
	layouts := map[int][3]int{2: {2, 1, 1}, 4: {2, 2, 1}}
	for _, solver := range []string{"cg", "ppcg"} {
		ref, err := RunDistributed3D(stiffDeflated3D(solver), 1, 1, 1, steps, 1)
		if err != nil {
			t.Fatalf("3D %s serial: %v", solver, err)
		}
		for ranks, p := range layouts {
			for _, backend := range []Backend{BackendHub, BackendTCP} {
				name := fmt.Sprintf("3D %s ranks=%d %s", solver, ranks, backend)
				res, err := RunDistributed3D(stiffDeflated3D(solver),
					p[0], p[1], p[2], steps, 1, WithBackend(backend))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := res.Energy.MaxDiff(ref.Energy); d > 1e-10 {
					t.Errorf("%s: energy differs from single-rank by %v", name, d)
				}
				di := res.Summary.TotalIterations - ref.Summary.TotalIterations
				if di < -steps || di > steps {
					t.Errorf("%s: %d total iterations vs single-rank %d (want ±1 per step)",
						name, res.Summary.TotalIterations, ref.Summary.TotalIterations)
				}
			}
		}
	}
}

// Deflation must also cut iterations distributed exactly as it does
// single-rank: the projector's whole point is mesh-size-independent
// convergence, and a rank-local restriction bug that degraded the coarse
// space would show up here as a lost reduction.
func TestDistributedDeflationStillReducesIterations(t *testing.T) {
	plainDeck := problem.StiffDeck(48)
	plain, err := RunDistributed(plainDeck, 2, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	deflDeck := problem.StiffDeck(48)
	deflDeck.UseDeflation = true
	deflDeck.DeflationBlocks = 8
	defl, err := RunDistributed(deflDeck, 2, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if float64(defl.Summary.TotalIterations) > 0.7*float64(plain.Summary.TotalIterations) {
		t.Errorf("distributed deflated CG took %d iterations, plain %d — expected ≥30%% reduction",
			defl.Summary.TotalIterations, plain.Summary.TotalIterations)
	}
	if d := defl.Energy.MaxDiff(plain.Energy); d > 1e-6 {
		t.Errorf("deflated distributed solution differs from plain by %v", d)
	}
}

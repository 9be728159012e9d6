package solver

import (
	"fmt"
	"testing"

	"tealeaf/internal/stats"
)

// The worker count changes only the order each dot's band partials are
// summed in: the CG engine's iteration, its exchanges and its sweep
// accounting must not depend on it, plain or deflated, on one rank or
// beside rank neighbours.

var workerVariants = []engineVariant{
	{name: "fused"},
	{name: "deflated-fused", deflated: true},
}

// TestEngineWorkerCounts: 2, 4 and 7 workers must match 1 worker within
// the distributed equivalence tests' bounds — 1e-10 on the solution, ±2
// iterations — on one and two ranks, 2D and 3D.
func TestEngineWorkerCounts(t *testing.T) {
	for _, v := range workerVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, ranks := range []int{1, 2} {
				refIters, refU, _ := rankRun2D(t, v, ranks, 1)
				refIters3, refU3, _ := rankRun3D(t, v, ranks, 1)
				for _, workers := range []int{2, 4, 7} {
					label := fmt.Sprintf("ranks=%d/workers=%d", ranks, workers)
					iters, u, _ := rankRun2D(t, v, ranks, workers)
					if d := iters - refIters; d < -2 || d > 2 || u.MaxDiff(refU) > 1e-10 {
						t.Errorf("2D %s: %d iterations, solution off by %v; 1 worker took %d",
							label, iters, u.MaxDiff(refU), refIters)
					}
					iters3, u3, _ := rankRun3D(t, v, ranks, workers)
					if d := iters3 - refIters3; d < -2 || d > 2 || u3.MaxDiff(refU3) > 1e-10 {
						t.Errorf("3D %s: %d iterations, solution off by %v; 1 worker took %d",
							label, iters3, u3.MaxDiff(refU3), refIters3)
					}
				}
			}
		})
	}
}

// checkWorkerTrace pins one solve's communication against its 1-worker
// reference on the same rank layout: the worker count may change neither
// the exchanges, the matvec and vector accounting nor the reduction
// rounds, and every exchange is at depth 1 — the CG engine has no deeper
// cycle, even on a grid whose halo could hold one.
func checkWorkerTrace(t *testing.T, label string, ref, tr stats.Trace) {
	t.Helper()
	if tr.HaloExchanges != ref.HaloExchanges || fmt.Sprint(tr.ExchangesByDepth) != fmt.Sprint(ref.ExchangesByDepth) {
		t.Errorf("%s: exchanges %v (total %d) differ from 1 worker's %v (total %d)",
			label, tr.ExchangesByDepth, tr.HaloExchanges, ref.ExchangesByDepth, ref.HaloExchanges)
	}
	if tr.ExchangesByDepth[1] != tr.HaloExchanges {
		t.Errorf("%s: exchanges by depth %v, want all %d at depth 1", label, tr.ExchangesByDepth, tr.HaloExchanges)
	}
	if tr.Matvecs != ref.Matvecs || tr.MatvecCells != ref.MatvecCells {
		t.Errorf("%s: matvec accounting (%d ops, %d cells) differs from 1 worker's (%d, %d)",
			label, tr.Matvecs, tr.MatvecCells, ref.Matvecs, ref.MatvecCells)
	}
	if tr.VectorPasses != ref.VectorPasses || tr.VectorCells != ref.VectorCells {
		t.Errorf("%s: vector accounting (%d passes, %d cells) differs from 1 worker's (%d, %d)",
			label, tr.VectorPasses, tr.VectorCells, ref.VectorPasses, ref.VectorCells)
	}
	if tr.Reductions != ref.Reductions || tr.ReducedValues != ref.ReducedValues {
		t.Errorf("%s: %d reductions (%d values) differ from 1 worker's %d (%d)",
			label, tr.Reductions, tr.ReducedValues, ref.Reductions, ref.ReducedValues)
	}
}

// TestEngineWorkerTrace2D: every engine variant × ranks {1,2,4} × workers
// {1,2,4,7} — the solve converges, and its trace and iteration count do
// not depend on the worker count.
func TestEngineWorkerTrace2D(t *testing.T) {
	for _, v := range workerVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, ranks := range []int{1, 2, 4} {
				refIters, _, refTr := rankRun2D(t, v, ranks, 1)
				for _, workers := range []int{2, 4, 7} {
					label := fmt.Sprintf("2D/ranks=%d/workers=%d", ranks, workers)
					iters, _, tr := rankRun2D(t, v, ranks, workers)
					if iters != refIters {
						t.Errorf("%s: %d iterations, 1 worker took %d", label, iters, refIters)
					}
					checkWorkerTrace(t, label, refTr, tr)
				}
			}
		})
	}
}

// TestEngineWorkerTrace3D is the 3D twin.
func TestEngineWorkerTrace3D(t *testing.T) {
	for _, v := range workerVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, ranks := range []int{1, 2, 4} {
				refIters, _, refTr := rankRun3D(t, v, ranks, 1)
				for _, workers := range []int{2, 4, 7} {
					label := fmt.Sprintf("3D/ranks=%d/workers=%d", ranks, workers)
					iters, _, tr := rankRun3D(t, v, ranks, workers)
					if iters != refIters {
						t.Errorf("%s: %d iterations, 1 worker took %d", label, iters, refIters)
					}
					checkWorkerTrace(t, label, refTr, tr)
				}
			}
		})
	}
}

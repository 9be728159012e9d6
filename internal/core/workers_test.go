package core

import (
	"fmt"
	"testing"

	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

// The worker count changes only the order each dot's band partials are
// summed in, so a deck run on 2, 4 or 7 workers must reproduce its
// 1-worker energy field to solver tolerance. Grain 1 makes the 48² and
// 16³ meshes, below the default grain, split into one band per worker.
// PPCG rides along because its bootstrap and inner smoothing reuse the
// fused machinery.

var workerSolvers = []string{"cg", "ppcg"}

// TestWorkerCounts2D: fused CG and PPCG from a 2D deck, 2 steps.
func TestWorkerCounts2D(t *testing.T) {
	for _, solver := range workerSolvers {
		for _, depth := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/depth%d", solver, depth), func(t *testing.T) {
				run := func(workers int) *Instance {
					d := problem.BenchmarkDeck(48)
					d.Solver, d.HaloDepth = solver, depth
					d.Eps = 1e-11
					d.EigenCGIters = 10
					pool := par.NewPool(workers).WithGrain(1)
					defer pool.Close()
					inst, err := NewSerial(d, pool)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := inst.Run(2); err != nil {
						t.Fatalf("%d workers: %v", workers, err)
					}
					return inst
				}
				ref := run(1)
				for _, w := range []int{2, 4, 7} {
					if diff := run(w).Energy.MaxDiff(ref.Energy); diff > 1e-8 {
						t.Errorf("%d workers: energy differs from 1 worker by %v", w, diff)
					}
				}
			})
		}
	}
}

// TestWorkerCounts3D is the 3D twin at depths 1 and 2.
func TestWorkerCounts3D(t *testing.T) {
	for _, solver := range workerSolvers {
		for _, depth := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/depth%d", solver, depth), func(t *testing.T) {
				run := func(workers int) *Instance3D {
					d := problem.BenchmarkDeck3D(16)
					d.Solver, d.HaloDepth = solver, depth
					d.Eps = 1e-11
					d.EigenCGIters = 10
					pool := par.NewPool(workers).WithGrain(1)
					defer pool.Close()
					inst, err := NewSerial3D(d, pool)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := inst.Run(2); err != nil {
						t.Fatalf("%d workers: %v", workers, err)
					}
					return inst
				}
				ref := run(1)
				for _, w := range []int{2, 4, 7} {
					if diff := run(w).Energy.MaxDiff(ref.Energy); diff > 1e-8 {
						t.Errorf("%d workers: energy differs from 1 worker by %v", w, diff)
					}
				}
			})
		}
	}
}

package core

import (
	"math"
	"strings"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"

	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

func TestSerial3DRunConservesEnergy(t *testing.T) {
	d := problem.BenchmarkDeck3D(10)
	inst, err := NewSerial3D(d, par.Serial)
	if err != nil {
		t.Fatal(err)
	}
	before := inst.Summarise()
	sum, err := inst.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-flux diffusion conserves internal energy.
	if drift := math.Abs(sum.InternalEnergy-before.InternalEnergy) / before.InternalEnergy; drift > 1e-8 {
		t.Errorf("3D energy drift %v", drift)
	}
	if sum.Steps != 3 || sum.TotalIterations == 0 {
		t.Errorf("summary %+v", sum)
	}
	// Heat must spread: the peak drops, the minimum rises.
	if inst.Energy.At(0, 1, 1) >= 25 {
		t.Error("hot box must cool")
	}
}

// A distributed dims=3 run must reproduce the serial energy field exactly
// to solver tolerance, over multiple rank layouts and a deep halo.
func TestRunDistributed3DMatchesSerial(t *testing.T) {
	d := problem.BenchmarkDeck3D(10)
	d.HaloDepth = 2
	serial, err := NewSerial3D(d, par.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Run(2); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range [][3]int{{2, 1, 1}, {2, 2, 1}, {1, 2, 2}} {
		dist, err := RunDistributed3D(d, cfg[0], cfg[1], cfg[2], 2, 1)
		if err != nil {
			t.Fatalf("%v ranks: %v", cfg, err)
		}
		if diff := dist.Energy.MaxDiff(serial.Energy); diff > 1e-8 {
			t.Errorf("%v ranks: energy differs from serial by %v", cfg, diff)
		}
		if math.Abs(dist.Summary.InternalEnergy-serial.Summarise().InternalEnergy) > 1e-8 {
			t.Errorf("%v ranks: summary mismatch", cfg)
		}
	}
}

func TestNewInstance3DRejectsBadConfigs(t *testing.T) {
	d := problem.BenchmarkDeck3D(8)
	d.Solver = "jacobi"
	if _, err := NewSerial3D(d, par.Serial); err != nil {
		t.Errorf("jacobi now has a 3D loop and must build: %v", err)
	}
	d = problem.BenchmarkDeck3D(8)
	d.Precond = "bogus"
	if _, err := NewSerial3D(d, par.Serial); err == nil {
		t.Error("an unknown preconditioner must be rejected")
	}
	d = problem.BenchmarkDeck(8) // dims=2
	if _, err := NewSerial3D(d, par.Serial); err == nil {
		t.Error("a 2D deck must be rejected by the 3D constructor")
	}
}

// tl_preconditioner_type jac_block on a dims=3 deck must solve
// end-to-end: the z-line tridiagonal block-Jacobi (this PR's registry
// unification closed the 2D-only gap) is a preconditioner, so the
// converged energy field must match the unpreconditioned solve.
func TestInstance3DJacBlockSolves(t *testing.T) {
	run := func(precond string) *Instance3D {
		d := problem.BenchmarkDeck3D(8)
		d.Precond = precond
		inst, err := NewSerial3D(d, par.Serial)
		if err != nil {
			t.Fatalf("%s: %v", precond, err)
		}
		if _, err := inst.Run(2); err != nil {
			t.Fatalf("%s: %v", precond, err)
		}
		return inst
	}
	plain := run("none")
	block := run("jac_block")
	if diff := block.Energy.MaxDiff(plain.Energy); diff > 1e-8 {
		t.Errorf("jac_block energy differs from unpreconditioned solve by %v", diff)
	}
}

func TestRunDistributed3DHybridWorkers(t *testing.T) {
	d := problem.BenchmarkDeck3D(8)
	flat, err := RunDistributed3D(d, 2, 1, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := RunDistributed3D(d, 2, 1, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if diff := flat.Energy.MaxDiff(hybrid.Energy); diff > 1e-9 {
		t.Errorf("hybrid workers changed the answer by %v", diff)
	}
}

// TestRunRankRejectsOtherDimsPartition: the rank entry points take the
// one grid.Partition, so each refuses, by name, a partition of the other
// dimensionality before it builds anything.
func TestRunRankRejectsOtherDimsPartition(t *testing.T) {
	d2, d3 := problem.CrookedPipeDeck(8, 8), problem.BenchmarkDeck3D(8)
	if _, err := RunRank(d2, grid.MustPartition3D(8, 8, 1, 1, 1, 1), comm.NewSerial(), 1, 1); err == nil ||
		!strings.Contains(err.Error(), "RunRank needs a 2D partition") {
		t.Errorf("RunRank over a 3D partition: err = %v", err)
	}
	if _, err := RunRank3D(d3, grid.MustPartition(8, 8, 1, 1), comm.NewSerial(), 1, 1); err == nil ||
		!strings.Contains(err.Error(), "RunRank3D needs a 3D partition") {
		t.Errorf("RunRank3D over a 2D partition: err = %v", err)
	}
}

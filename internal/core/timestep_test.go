package core

import (
	"math"
	"testing"

	"tealeaf/internal/problem"
)

// TestSetTimestepReusesCoarseOperator pins the deflation E-cache
// contract: while dt (and hence the operator) is unchanged, stepping and
// same-dt SetTimestep calls perform NO coarse re-assembly — the cached
// E = WᵀAW and its factorization carry over, saving the assembly's
// reduction round — and a genuine dt change re-assembles exactly once.
func TestSetTimestepReusesCoarseOperator(t *testing.T) {
	d := problem.BenchmarkDeck(32)
	d.Solver = "cg"
	d.UseDeflation = true
	d.DeflationBlocks = 4
	inst, err := NewSerial(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := inst.Comm.Trace()

	base := tr.Reductions
	if err := inst.SetTimestep(d.InitialTimestep); err != nil {
		t.Fatal(err)
	}
	if tr.Reductions != base {
		t.Errorf("same-dt SetTimestep must keep the cached coarse operator (zero reduction rounds), added %d",
			tr.Reductions-base)
	}

	if err := inst.SetTimestep(d.InitialTimestep * 2); err != nil {
		t.Fatal(err)
	}
	if got := tr.Reductions - base; got != 1 {
		t.Errorf("changed-dt SetTimestep reduction rounds = %d, want exactly 1 (the E re-assembly)", got)
	}

	// The refreshed projector must still solve, and time must advance by
	// the new dt.
	if _, err := inst.Step(); err != nil {
		t.Fatal(err)
	}
	if want := 2 * d.InitialTimestep; math.Abs(inst.Time()-want) > 1e-15 {
		t.Errorf("sim time after one doubled step = %v, want %v", inst.Time(), want)
	}
	if err := inst.SetTimestep(-1); err == nil {
		t.Error("non-positive dt must be rejected")
	}
}

// TestSetTimestep3DRefreshesProjector is the 3D twin: a dt change
// re-assembles E exactly once and the run stays convergent.
func TestSetTimestep3DRefreshesProjector(t *testing.T) {
	d := problem.BenchmarkDeck3D(12)
	d.Solver = "cg"
	d.UseDeflation = true
	d.DeflationBlocks = 3
	inst, err := NewSerial3D(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := inst.Comm.Trace()
	base := tr.Reductions
	if err := inst.SetTimestep(d.InitialTimestep); err != nil {
		t.Fatal(err)
	}
	if tr.Reductions != base {
		t.Error("same-dt SetTimestep must not re-assemble the 3D coarse operator")
	}
	if err := inst.SetTimestep(d.InitialTimestep * 0.5); err != nil {
		t.Fatal(err)
	}
	if got := tr.Reductions - base; got != 1 {
		t.Errorf("changed-dt SetTimestep reduction rounds = %d, want 1", got)
	}
	if _, err := inst.Step(); err != nil {
		t.Fatal(err)
	}
}

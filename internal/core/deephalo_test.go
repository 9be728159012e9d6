package core

import (
	"testing"

	"tealeaf/internal/problem"
)

// TestDeepHaloFusedCGDeckTrace pins the matrix-powers cadence for the
// fused CG engine from a deck: with tl_ppcg_halo_depth=3 the recurrence
// vectors are exchanged once per 3 iterations (not per iteration), and
// the solution matches the depth-1 golden.
func TestDeepHaloFusedCGDeckTrace(t *testing.T) {
	run := func(depth int) (*Instance, int) {
		d := problem.BenchmarkDeck(32)
		d.Solver = "cg"
		d.HaloDepth = depth
		d.Eps = 1e-11
		inst, err := NewSerial(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Comm.Trace().Reset() // drop the setup-time density exchange
		res, err := inst.Step()
		if err != nil {
			t.Fatal(err)
		}
		return inst, res.Iterations
	}
	ref, _ := run(1)
	deep, iters := run(3)
	if d := deep.Energy.MaxDiff(ref.Energy); d > 1e-10 {
		t.Errorf("depth-3 fused CG energy differs from depth-1 by %v", d)
	}
	tr := deep.Comm.Trace()
	got := tr.ExchangesByDepth[3]
	want := (iters + 2) / 3 // one cycle-top exchange per 3 iterations
	if got == 0 || got > want+1 {
		t.Errorf("depth-3 exchanges = %d over %d iterations, want about %d (one per 3 sweeps, not per sweep); byDepth=%v",
			got, iters, want, tr.ExchangesByDepth)
	}
	if tr.ExchangesByDepth[1] >= iters {
		t.Errorf("deep cycle still exchanging every iteration: %d depth-1 exchanges over %d iterations",
			tr.ExchangesByDepth[1], iters)
	}
}

// TestDeepHaloDeflatedCGDeckTrace proves depth s>1 is reachable from a
// DEFLATED fused-CG deck: the projector's extended-bounds path keeps the
// one-exchange-per-s-sweeps cadence and the depth-1 golden.
func TestDeepHaloDeflatedCGDeckTrace(t *testing.T) {
	run := func(depth int) (*Instance, int) {
		d := problem.BenchmarkDeck(32)
		d.Solver = "cg"
		d.UseDeflation = true
		d.DeflationBlocks = 4
		d.HaloDepth = depth
		d.Eps = 1e-11
		inst, err := NewSerial(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Comm.Trace().Reset()
		res, err := inst.Step()
		if err != nil {
			t.Fatal(err)
		}
		return inst, res.Iterations
	}
	ref, _ := run(1)
	deep, iters := run(2)
	if d := deep.Energy.MaxDiff(ref.Energy); d > 1e-10 {
		t.Errorf("depth-2 deflated CG energy differs from depth-1 by %v", d)
	}
	tr := deep.Comm.Trace()
	got := tr.ExchangesByDepth[2]
	want := (iters + 1) / 2
	if got == 0 || got > want+1 {
		t.Errorf("depth-2 exchanges = %d over %d iterations, want about %d; byDepth=%v",
			got, iters, want, tr.ExchangesByDepth)
	}
}

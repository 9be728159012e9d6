package core

import (
	"math"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/place"
	"tealeaf/internal/problem"
)

func TestSerialBenchmarkRun(t *testing.T) {
	d := problem.BenchmarkDeck(24)
	inst, err := NewSerial(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum0 := inst.Summarise()
	sum, err := inst.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Steps != 3 {
		t.Errorf("steps = %d", sum.Steps)
	}
	if math.Abs(sum.SimTime-3*d.InitialTimestep) > 1e-12 {
		t.Errorf("sim time = %v", sum.SimTime)
	}
	if sum.TotalIterations <= 0 {
		t.Error("no iterations recorded")
	}
	// Pure diffusion with zero-flux boundaries conserves total internal
	// energy exactly (up to solver tolerance).
	if rel := math.Abs(sum.InternalEnergy-sum0.InternalEnergy) / sum0.InternalEnergy; rel > 1e-8 {
		t.Errorf("internal energy not conserved: rel drift %v", rel)
	}
	// Mass never changes (no hydro).
	if sum.Mass != sum0.Mass {
		t.Errorf("mass changed: %v -> %v", sum0.Mass, sum.Mass)
	}
}

func TestDiffusionSmoothsHotSpot(t *testing.T) {
	d := problem.BenchmarkDeck(24)
	inst, err := NewSerial(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, hi0 := inst.Energy.MinMaxInterior()
	if _, err := inst.Run(3); err != nil {
		t.Fatal(err)
	}
	lo, hi := inst.Energy.MinMaxInterior()
	if hi >= hi0 {
		t.Errorf("max energy must decrease under diffusion: %v -> %v", hi0, hi)
	}
	if lo <= 0 {
		t.Errorf("energy must stay positive, got %v", lo)
	}
}

func TestAllSolversAgreeOnPhysics(t *testing.T) {
	// All four solvers must produce the same energy field after a few
	// steps (they solve the same systems).
	ref := runWith(t, "cg", 1)
	for _, s := range []string{"jacobi", "chebyshev", "ppcg"} {
		got := runWith(t, s, 1)
		if d := got.MaxDiff(ref); d > 1e-5 {
			t.Errorf("%s energy differs from cg by %v", s, d)
		}
	}
}

func runWith(t *testing.T, solverName string, steps int) *grid.Field2D {
	t.Helper()
	d := problem.BenchmarkDeck(20)
	d.Solver = solverName
	d.Eps = 1e-12
	d.MaxIters = 100000
	d.EigenCGIters = 10
	inst, err := NewSerial(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Run(steps); err != nil {
		t.Fatalf("%s: %v", solverName, err)
	}
	return inst.Energy
}

func TestDistributedMatchesSerial(t *testing.T) {
	d := problem.BenchmarkDeck(24)
	d.Solver = "cg"
	d.Eps = 1e-12
	serial, err := NewSerial(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Run(2); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range [][2]int{{2, 2}, {4, 1}, {1, 3}, {3, 2}} {
		dist, err := RunDistributed(d, cfg[0], cfg[1], 2, 1)
		if err != nil {
			t.Fatalf("%dx%d: %v", cfg[0], cfg[1], err)
		}
		diff := 0.0
		for k := 0; k < 24; k++ {
			for j := 0; j < 24; j++ {
				if dd := math.Abs(dist.Energy.At(j, k) - serial.Energy.At(j, k)); dd > diff {
					diff = dd
				}
			}
		}
		if diff > 1e-9 {
			t.Errorf("%dx%d: distributed energy differs from serial by %v", cfg[0], cfg[1], diff)
		}
	}
}

func TestDistributedPPCGMatrixPowersMatchesSerial(t *testing.T) {
	// The full CPPCG + matrix powers + deep halo + multi-rank stack
	// against the serial result: the strongest end-to-end correctness
	// check in the suite.
	d := problem.BenchmarkDeck(32)
	d.Solver = "ppcg"
	d.Eps = 1e-12
	d.EigenCGIters = 10
	d.InnerSteps = 8
	d.HaloDepth = 4

	serial, err := NewSerial(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Run(2); err != nil {
		t.Fatal(err)
	}
	dist, err := RunDistributed(d, 2, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var diff float64
	for k := 0; k < 32; k++ {
		for j := 0; j < 32; j++ {
			if dd := math.Abs(dist.Energy.At(j, k) - serial.Energy.At(j, k)); dd > diff {
				diff = dd
			}
		}
	}
	if diff > 1e-8 {
		t.Errorf("distributed CPPCG energy differs from serial by %v", diff)
	}
}

func TestHybridWorkersMatchFlat(t *testing.T) {
	d := problem.BenchmarkDeck(24)
	d.Solver = "cg"
	d.Eps = 1e-11
	flat, err := RunDistributed(d, 2, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	busy := place.Busy()
	hybrid, err := RunDistributed(d, 2, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if place.Busy() != busy { // each rank closes its team, giving its claim back
		t.Errorf("%d busy threads after a 2-rank × 4-worker run, %d before", place.Busy(), busy)
	}
	var diff float64
	for k := 0; k < 24; k++ {
		for j := 0; j < 24; j++ {
			if dd := math.Abs(flat.Energy.At(j, k) - hybrid.Energy.At(j, k)); dd > diff {
				diff = dd
			}
		}
	}
	if diff > 1e-9 {
		t.Errorf("hybrid differs from flat by %v", diff)
	}
}

func TestCrookedPipeTransportsHeat(t *testing.T) {
	// Small crooked pipe: after some steps, heat must have travelled
	// further along the pipe than through the wall.
	d := problem.CrookedPipeDeck(48, 48)
	d.Eps = 1e-9
	inst, err := NewSerial(d, par.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Run(10); err != nil {
		t.Fatal(err)
	}
	// Pipe inlet row: k where y ≈ 7.0 → k = 7.0/10*48 ≈ 33.
	kPipe := 33
	// Mid-pipe (x ≈ 2.0 → j ≈ 9): pipe cell downstream of the source.
	pipeT := inst.Energy.At(9, kPipe)
	// Wall cell the same distance from the source but off-pipe (y ≈ 5).
	wallT := inst.Energy.At(9, 24)
	if pipeT <= wallT {
		t.Errorf("heat must run along the pipe: pipe %v, wall %v", pipeT, wallT)
	}
	if pipeT <= problem.ColdEnergy {
		t.Errorf("pipe cell still cold: %v", pipeT)
	}
}

func TestStepFailureSurfacesError(t *testing.T) {
	d := problem.BenchmarkDeck(16)
	d.MaxIters = 2 // cannot converge
	d.Eps = 1e-14
	inst, err := NewSerial(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Step(); err == nil {
		t.Error("non-convergence must surface as an error")
	}
}

func TestHaloFor(t *testing.T) {
	d := problem.BenchmarkDeck(8)
	if HaloFor(d) != MinHalo {
		t.Errorf("default halo = %d", HaloFor(d))
	}
	d.HaloDepth = 8
	if HaloFor(d) != 8 {
		t.Errorf("deep halo = %d", HaloFor(d))
	}
}

func TestInstanceAccessors(t *testing.T) {
	d := problem.BenchmarkDeck(8)
	inst, err := NewSerial(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Kind() != "cg" {
		t.Errorf("kind = %v", inst.Kind())
	}
	if inst.Options().Tol != d.Eps {
		t.Error("options not derived from deck")
	}
	if inst.StepCount() != 0 || inst.Time() != 0 {
		t.Error("fresh instance must be at step 0")
	}
}

// The deflation acceptance path: a deck with tl_use_deflation solves
// end-to-end through the ordinary Instance cycle, converges to the same
// physics as undeflated CG, and — on the stiff benchmark deck, the
// regime §VII targets — needs substantially fewer CG iterations.
func TestDeflationDeckEndToEnd(t *testing.T) {
	run := func(deflate bool) (Summary, *Instance) {
		d := problem.StiffDeck(48)
		d.UseDeflation = deflate
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		inst, err := NewSerial(d, par.Serial)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := inst.Run(2)
		if err != nil {
			t.Fatalf("deflate=%v: %v", deflate, err)
		}
		return sum, inst
	}
	plain, pInst := run(false)
	defl, dInst := run(true)
	if diff := dInst.Energy.MaxDiff(pInst.Energy); diff > 1e-6 {
		t.Errorf("deflated energy differs from plain CG by %v", diff)
	}
	if math.Abs(defl.InternalEnergy-plain.InternalEnergy) > 1e-6*math.Abs(plain.InternalEnergy) {
		t.Errorf("internal energy mismatch: %v vs %v", defl.InternalEnergy, plain.InternalEnergy)
	}
	if defl.TotalIterations >= plain.TotalIterations {
		t.Errorf("deflated CG took %d iterations, plain CG %d — deflation must win on the stiff deck",
			defl.TotalIterations, plain.TotalIterations)
	}
	t.Logf("stiff deck iterations: plain CG %d, deflated CG %d", plain.TotalIterations, defl.TotalIterations)
}

// The built-in stiff deflated deck (`tealeaf -stiff -mesh 512 -deflate
// -deflate-blocks 8`) steps four times: at step 3 the recurred residual
// meets the tolerance while the re-measured true one misses the 10·tol
// margin, and CG restarts from the corrected iterate instead of failing.
func TestStiffDeflatedDeckSteps(t *testing.T) {
	d := problem.StiffDeck(512)
	d.UseDeflation = true
	d.DeflationBlocks = 8
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	inst, err := NewSerial(d, par.Serial)
	if err != nil {
		t.Fatal(err)
	}
	sum0 := inst.Summarise()
	sum, err := inst.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Steps != 4 {
		t.Fatalf("steps = %d", sum.Steps)
	}
	if rel := math.Abs(sum.InternalEnergy-sum0.InternalEnergy) / sum0.InternalEnergy; rel > 1e-8 {
		t.Errorf("internal energy not conserved: rel drift %v", rel)
	}
}

// Composition rules surface as actionable errors at instance build time:
// deflation composes with cg and ppcg only (in 2D and 3D, distributed or
// not), and the coarse geometry must fit the mesh.
func TestDeflationDeckRejectsBadCompositions(t *testing.T) {
	d := problem.StiffDeck(32)
	d.UseDeflation = true
	d.Solver = "jacobi"
	if _, err := NewSerial(d, par.Serial); err == nil {
		t.Error("deflation with jacobi must be rejected")
	}
	d = problem.StiffDeck(32)
	d.UseDeflation = true
	d.Solver = "chebyshev"
	if _, err := NewSerial(d, par.Serial); err == nil {
		t.Error("deflation with chebyshev must be rejected")
	}
	d = problem.StiffDeck(32)
	d.UseDeflation = true
	d.DeflationBlocks = 64 // exceeds the mesh
	if err := d.Validate(); err == nil {
		t.Error("deflation blocks beyond the mesh must be rejected")
	}
	// Previously walled off, now first-class: ppcg and distributed runs.
	d = problem.StiffDeck(32)
	d.UseDeflation = true
	d.Solver = "ppcg"
	if _, err := NewSerial(d, par.Serial); err != nil {
		t.Errorf("deflation with ppcg must build: %v", err)
	}
	d = problem.StiffDeck(32)
	d.UseDeflation = true
	if _, err := RunDistributed(d, 2, 1, 1, 1); err != nil {
		t.Errorf("deflation in a distributed run must work: %v", err)
	}
}

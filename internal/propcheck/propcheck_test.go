package propcheck

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
)

// TestGenDeterministic: the generator's whole point is that a seed
// reproduces a corpus exactly — two independent streams from the same
// seed must emit identical decks, draw after draw.
func TestGenDeterministic(t *testing.T) {
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		a, b := Gen(r1).Format(), Gen(r2).Format()
		if a != b {
			t.Fatalf("draw %d diverged between identical streams:\n%s\n--- vs ---\n%s", i, a, b)
		}
	}
}

// TestGenValidAndRoundTrips: every generated deck validates (Gen panics
// otherwise, but the test documents the contract) and survives the
// Format -> ParseString -> Format round trip unchanged, so a shrunk
// reproducer printed in a failure report really is runnable as-is.
func TestGenValidAndRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	dims := map[int]int{}
	for i := 0; i < 50; i++ {
		d := Gen(r)
		if err := d.Validate(); err != nil {
			t.Fatalf("draw %d invalid: %v", i, err)
		}
		dims[d.Dims]++
		text := d.Format()
		back, err := deck.ParseString(text)
		if err != nil {
			t.Fatalf("draw %d does not re-parse: %v\n%s", i, err, text)
		}
		if got := back.Format(); got != text {
			t.Fatalf("draw %d round trip changed the deck:\n%s\n--- vs ---\n%s", i, text, got)
		}
	}
	if dims[2] == 0 || dims[3] == 0 {
		t.Errorf("50 draws covered dims %v; want both 2D and 3D", dims)
	}
}

// TestRunCleanCorpus: a small seeded run passes every checker and
// reports one complete record per deck.
func TestRunCleanCorpus(t *testing.T) {
	rep := Run(Config{Seed: 1, N: 4, Log: t.Logf})
	if !rep.OK() {
		for _, c := range rep.Cases {
			if c.Failure != nil {
				t.Errorf("deck %d failed %s: %s\ndeck:\n%s\nshrunk:\n%s",
					c.Index, c.Failure.Checker, c.Failure.Detail, c.Failure.Deck, c.Failure.Shrunk)
			}
		}
	}
	if len(rep.Cases) != 4 {
		t.Fatalf("cases = %d, want 4", len(rep.Cases))
	}
	for _, c := range rep.Cases {
		if len(c.Checkers) == 0 {
			t.Errorf("deck %d: no checkers recorded", c.Index)
		}
		if c.Imbalance > c.Slack {
			t.Errorf("deck %d: energy imbalance %.3e above its rounding slack %.3e", c.Index, c.Imbalance, c.Slack)
		}
	}
}

// tamperDeck is the fixed deck the fault-injection tests run: small,
// two-state, converges in a handful of iterations, and sized so the
// shrinker has real work (mesh halvings, a droppable region).
func tamperDeck(t *testing.T) *deck.Deck {
	t.Helper()
	d := deck.Default()
	d.XCells, d.YCells = 12, 12
	d.EndStep = 2
	d.EndTime = 1e12
	d.Eps = 1e-9
	d.States = []deck.State{
		{Index: 1, Density: 1, Energy: 1},
		{Index: 2, Density: 5, Energy: 4, Geometry: deck.GeomRectangle, XMin: 2, XMax: 6, YMin: 2, YMax: 7},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("tamper deck invalid: %v", err)
	}
	return d
}

// tamperCell returns a TamperFunc that scales one interior cell of the
// named leg's energy field by 1+rel.
func tamperCell(leg string, rel float64) TamperFunc {
	return func(l string, energy *grid.Field2D) {
		if l != leg {
			return
		}
		b := energy.Grid.Interior()
		energy.Set(b.X0, b.Y0, energy.At(b.X0, b.Y0)*(1+rel))
	}
}

// TestTamperedWorkerLegsTripWorkers: a fault confined to any one
// multi-worker leg — a simulated band-split bug — fails the workers
// checker, naming the leg. The depth-2 leg runs on PPCG decks only.
func TestTamperedWorkerLegsTripWorkers(t *testing.T) {
	for _, leg := range []string{"workers-w2", "workers-w4", "workers-d2-w2"} {
		t.Run(leg, func(t *testing.T) {
			d := tamperDeck(t)
			if leg == "workers-d2-w2" {
				d.Solver = "ppcg"
			}
			cr := CheckDeck(d, Config{Tamper: tamperCell(leg, 1e-4), ShrinkBudget: 1})
			if cr.Failure == nil {
				t.Fatalf("tampered %s leg was not detected", leg)
			}
			if cr.Failure.Checker != "workers" {
				t.Fatalf("caught by %q, want workers (detail: %s)", cr.Failure.Checker, cr.Failure.Detail)
			}
			if !strings.Contains(cr.Failure.Detail, leg) {
				t.Errorf("detail %q does not name the %s leg", cr.Failure.Detail, leg)
			}
		})
	}
}

// TestDepthLegsArePPCGOnly: the halo depth is PPCG's inner matrix-powers
// depth, so a CG deck runs neither the halo-depth checker's legs nor the
// workers checker's depth-2 leg — a fault confined to one of them goes
// unseen — while on a PPCG deck the same fault fails its checker.
func TestDepthLegsArePPCGOnly(t *testing.T) {
	for _, tc := range []struct{ leg, checker string }{
		{"workers-d2-w2", "workers"},
		{"halo2", "halo-depth"},
		{"halo3", "halo-depth"},
	} {
		t.Run(tc.leg, func(t *testing.T) {
			cfg := Config{Tamper: tamperCell(tc.leg, 1e-4), ShrinkBudget: 1}
			if cr := CheckDeck(tamperDeck(t), cfg); cr.Failure != nil {
				t.Errorf("cg deck ran the %s leg: %s failed: %s", tc.leg, cr.Failure.Checker, cr.Failure.Detail)
			}
			d := tamperDeck(t)
			d.Solver = "ppcg"
			cr := CheckDeck(d, cfg)
			if cr.Failure == nil || cr.Failure.Checker != tc.checker {
				t.Errorf("ppcg deck with a tampered %s leg: failure %+v, want the %s checker", tc.leg, cr.Failure, tc.checker)
			}
		})
	}
}

// TestBrokenKernelDetectedAndShrunk is the acceptance demo: a fault
// injected into exactly one checker leg (the 2-worker run, i.e. a
// simulated band-split bug) is caught by the workers checker and shrunk
// to a minimal ready-to-run reproducer that still fails.
func TestBrokenKernelDetectedAndShrunk(t *testing.T) {
	cfg := Config{Tamper: tamperCell("workers-w2", 1e-4)}
	cr := CheckDeck(tamperDeck(t), cfg)
	if cr.Failure == nil {
		t.Fatal("tampered workers-w2 leg was not detected")
	}
	if cr.Failure.Checker != "workers" {
		t.Fatalf("caught by %q, want workers (detail: %s)", cr.Failure.Checker, cr.Failure.Detail)
	}
	if cr.Failure.ShrinkAttempts == 0 {
		t.Error("shrinker recorded no attempts")
	}

	// The shrunk reproducer must be a runnable deck...
	shrunk, err := deck.ParseString(cr.Failure.Shrunk)
	if err != nil {
		t.Fatalf("shrunk reproducer does not parse: %v\n%s", err, cr.Failure.Shrunk)
	}
	// ...that still trips the same checker...
	re := CheckDeck(shrunk, cfg)
	if re.Failure == nil || re.Failure.Checker != "workers" {
		t.Fatalf("shrunk deck no longer reproduces the failure: %+v", re.Failure)
	}
	// ...and is minimal: the fault fires on every candidate, so the
	// shrinker must reach the floors — mesh halved to the minimum, one
	// step, background state only.
	if shrunk.XCells != 6 || shrunk.YCells != 6 {
		t.Errorf("shrunk mesh %dx%d, want 6x6", shrunk.XCells, shrunk.YCells)
	}
	if shrunk.Steps() != 1 {
		t.Errorf("shrunk steps = %d, want 1", shrunk.Steps())
	}
	if len(shrunk.States) != 1 {
		t.Errorf("shrunk states = %d, want 1", len(shrunk.States))
	}
}

// TestTamperedBaseTripsConservation: a fault in the base leg must be
// caught by the physics checkers, not just cross-leg comparisons — the
// re-summarised internal energy exposes it as a conservation violation.
// The fault is a 1e-6 relative perturbation of the leg's field after
// its solves, which no residual accounts for.
func TestTamperedBaseTripsConservation(t *testing.T) {
	cfg := Config{
		Tamper: func(leg string, energy *grid.Field2D) {
			if leg != "base" {
				return
			}
			b := energy.Grid.Interior()
			for k := b.Y0; k < b.Y1; k++ {
				for j := b.X0; j < b.X1; j++ {
					energy.Set(j, k, energy.At(j, k)*(1+1e-6))
				}
			}
		},
	}
	cr := CheckDeck(tamperDeck(t), cfg)
	if cr.Failure == nil {
		t.Fatal("tampered base leg was not detected")
	}
	if cr.Failure.Checker != "conserve" {
		t.Fatalf("caught by %q, want conserve (detail: %s)", cr.Failure.Checker, cr.Failure.Detail)
	}
}

// deck106 is the shrunk reproducer of `teabench -exp fuzz -seed 1` deck
// 106: a 3D recip_density jac_diag CG deck at tl_eps = 1e-10 whose
// internal energy drifts 1.73e-8 relative, which a fixed 1e-8
// conservation gate failed. The drift follows the deck's own tl_eps
// (6.2e-11 at 1e-12, 2.3e-13 at 1e-14 on the fused engine): it is the
// residual the solve stops at, not a 3D defect.
const deck106 = `*tea
dims=3
x_cells=11
y_cells=7
z_cells=14
xmin=-4.9018577232849125
xmax=-4.170402390108395
ymin=4.140462084017111
ymax=4.5568319428928
zmin=2.9874664954271255
zmax=3.870570481916844
initial_timestep=0.04663102455648603
end_time=1e+12
end_step=1
tl_use_cg
tl_max_iters=30000
tl_eps=1e-10
tl_preconditioner_type=jac_diag
tl_coefficient_recip_density
state 1 density=0.5543723146835569 energy=0.05225089214678922
state 2 density=1.0085529734939715 energy=0.03373765269930603 geometry=rectangle xmin=-4.3437522055214215 xmax=-4.315088785068472 ymin=4.198534025384363 ymax=4.323459877997609 zmin=3.478435057915306 zmax=3.710159720384305
state 3 density=0.735136800268472 energy=0.016673499323747527 geometry=rectangle xmin=-4.830069931504297 xmax=-4.7587669295296315 ymin=4.345460023903749 ymax=4.520382767412526 zmin=3.0041216829010846 zmax=3.4539276383081736
state 4 density=18.38500086947939 energy=5.875813852418745 geometry=circle xcentre=-4.5911539795270215 ycentre=4.433025542394727 zcentre=3.503457664460237 radius=0.046993951164580904
state 5 density=6.3255960871158345 energy=0.0468923108642938 geometry=rectangle xmin=-4.882420860315536 xmax=-4.716189607406123 ymin=4.358316210198544 ymax=4.506675117714414 zmin=2.998704940508835 zmax=3.670359191425117
*endtea
`

// TestConserveDeck106 pins deck106 as a regression case: at its own
// tl_eps and at two tighter ones the drift is what the solves' residuals
// account for, and it shrinks with tl_eps.
func TestConserveDeck106(t *testing.T) {
	prev := math.Inf(1)
	for _, eps := range []float64{1e-10, 1e-12, 1e-14} {
		d, err := deck.ParseString(deck106)
		if err != nil {
			t.Fatal(err)
		}
		d.Eps = eps
		h := newHarness(d, Config{})
		if err := checkConserve(h); err != nil {
			t.Fatalf("eps %g: %v", eps, err)
		}
		drift := relDrift(h.base)
		t.Logf("eps %g: drift %.2e, imbalance %.2e, slack %.2e",
			eps, drift, relImbalance(h.base), relSlack(h.base))
		if drift > prev/10 {
			t.Errorf("eps %g: drift %.2e, not 10× below %.2e at 100× looser eps", eps, drift, prev)
		}
		prev = drift
	}
}

// TestShrinkReachesFloors: with an always-failing predicate the shrinker
// must strip every axis down to its floor and stay within budget.
func TestShrinkReachesFloors(t *testing.T) {
	d := tamperDeck(t)
	d.Solver = "ppcg"
	d.Precond = "jac_diag"
	d.HaloDepth = 3
	d.XCells, d.YCells = 24, 24
	d.UseDeflation = true
	d.DeflationBlocks = 4
	if err := d.Validate(); err != nil {
		t.Fatalf("setup deck invalid: %v", err)
	}

	const budget = 60
	shrunk, attempts := Shrink(d, func(*deck.Deck) bool { return true }, budget)
	if attempts > budget {
		t.Errorf("attempts = %d, above budget %d", attempts, budget)
	}
	if shrunk.XCells != 6 || shrunk.YCells != 6 {
		t.Errorf("mesh %dx%d, want 6x6", shrunk.XCells, shrunk.YCells)
	}
	if shrunk.Steps() != 1 {
		t.Errorf("steps = %d, want 1", shrunk.Steps())
	}
	if len(shrunk.States) != 1 {
		t.Errorf("states = %d, want 1", len(shrunk.States))
	}
	if shrunk.UseDeflation {
		t.Errorf("options not fully stripped: %+v", shrunk)
	}
	if shrunk.Precond != "none" || shrunk.HaloDepth != 1 || shrunk.Solver != "cg" {
		t.Errorf("precond/halo/solver not at floors: %s %d %s", shrunk.Precond, shrunk.HaloDepth, shrunk.Solver)
	}
	// The original deck is untouched throughout.
	if d.XCells != 24 || !d.UseDeflation || d.Solver != "ppcg" {
		t.Error("Shrink mutated its input deck")
	}
}

package problem

import (
	"math"

	"tealeaf/internal/deck"
)

// This file is the hard-deck gallery: decks promoted from the propcheck
// fuzzing corpus (internal/propcheck, `teabench -exp fuzz`) because they
// work the solver stack hardest. Each constructor is a cleaned-up,
// hand-rounded version of a fuzz-found deck — the provenance (seed and
// deck index) is in the doc comment — and each is pinned by goldens in
// gallery_test.go so a solver change that alters its behaviour shows up
// as a diff, not a silent drift. examples/gallery runs all of them and
// renders the final fields.

// GalleryHotStripDeck is promoted from fuzz seed 1, deck 22: a tall thin
// hot strip (200× the background specific energy) punched through a
// light rectangle on an anisotropic 42×48 mesh. Moderate stiffness
// (rx ≈ 9) with a sharp localised source makes plain CG grind — about
// 200 iterations per step at eps 1e-10 — which made it the
// second-hardest deck of the seed-1 corpus.
func GalleryHotStripDeck() *deck.Deck {
	d := deck.Default()
	d.XCells, d.YCells = 42, 48
	d.XMin, d.XMax = 4.6, 15.4
	d.YMin, d.YMax = 1.1, 14.7
	d.InitialTimestep = 0.575
	d.EndTime = 1e12 // step-limited
	d.EndStep = 2
	d.Solver = "cg"
	d.Coefficient = "density"
	d.Eps = 1e-10
	d.States = []deck.State{
		{Index: 1, Density: 1.71, Energy: 0.0594},
		{Index: 2, Density: 0.131, Energy: 0.402, Geometry: deck.GeomRectangle,
			XMin: 9.99, XMax: 13.6, YMin: 5.84, YMax: 9.97},
		{Index: 3, Density: 3.29, Energy: 12.1, Geometry: deck.GeomRectangle,
			XMin: 9.81, XMax: 10.6, YMin: 2.52, YMax: 10.7},
	}
	return d
}

// GalleryDeflatedPointsDeck is promoted from fuzz seed 1, deck 24 — the
// hardest deck of the corpus (~275 iterations per step). A stiff
// operator (Δt ≈ 2.27 on ~0.17-wide cells, rx ≈ 77) over a 44× density
// contrast, seeded with two point states, solved by CG with two-block
// subdomain deflation — the configuration stack whose interplay the
// fuzzer exists to cross-check. (The fuzzer drew it with depth-3 halos,
// which CG no longer takes: the halo depth is PPCG's.)
func GalleryDeflatedPointsDeck() *deck.Deck {
	d := deck.Default()
	d.XCells, d.YCells = 35, 31
	d.XMin, d.XMax = -3.94, 6.70
	d.YMin, d.YMax = 0.67, 5.98
	d.InitialTimestep = 2.27
	d.EndTime = 1e12 // step-limited
	d.EndStep = 3
	d.Solver = "cg"
	d.Coefficient = "density"
	d.Eps = 1e-9
	d.UseDeflation = true
	d.DeflationBlocks = 2
	d.DeflationLevels = 1
	d.States = []deck.State{
		{Index: 1, Density: 5.94, Energy: 0.205},
		{Index: 2, Density: 0.358, Energy: 2.41, Geometry: deck.GeomRectangle,
			XMin: -2.90, XMax: 1.76, YMin: 1.09, YMax: 5.20},
		{Index: 3, Density: 0.399, Energy: 0.144, Geometry: deck.GeomRectangle,
			XMin: 1.34, XMax: 4.10, YMin: 1.98, YMax: 3.66},
		{Index: 4, Density: 0.136, Energy: 0.0551, Geometry: deck.GeomPoint,
			CX: 2.87, CY: 3.33},
		{Index: 5, Density: 1.85, Energy: 0.0411, Geometry: deck.GeomPoint,
			CX: 1.47, CY: 3.88},
	}
	return d
}

// GalleryNearSteadyDeck is the degenerate-startup pathology the fuzzer
// found in the solver itself (seed 3 and 7 corpora): a uniform
// single-state deck whose exact initial residual is zero, so the
// computed ‖r₀‖ is pure stencil roundoff (~ε·‖A‖·‖u‖). An r₀-relative
// stopping rule then asks for tol·‖r₀‖ — below the attainable floor —
// and the CG recurrence random-walks into a breakdown guard.
// The fix (internal/solver/loops.go, startupBaseSq) detects
// ‖r₀‖ ≤ 10·tol·‖b‖ at startup and declares victory in zero iterations;
// this deck pins that behaviour.
func GalleryNearSteadyDeck() *deck.Deck {
	d := deck.Default()
	d.XCells, d.YCells = 24, 24
	d.XMin, d.XMax = 0, 3
	d.YMin, d.YMax = 0, 3
	d.InitialTimestep = 0.8
	d.EndTime = 1e12 // step-limited
	d.EndStep = 3
	d.Solver = "cg"
	d.Coefficient = "density"
	d.Eps = 1e-10
	d.States = []deck.State{
		{Index: 1, Density: 2.5, Energy: 0.75},
	}
	return d
}

// GalleryDecks returns the whole gallery with stable display names, in
// the order examples/gallery renders them.
func GalleryDecks() []struct {
	Name string
	Deck *deck.Deck
} {
	return []struct {
		Name string
		Deck *deck.Deck
	}{
		{"hot-strip", GalleryHotStripDeck()},
		{"deflated-points", GalleryDeflatedPointsDeck()},
		{"near-steady", GalleryNearSteadyDeck()},
	}
}

// GalleryStiffness reports rx = Δt/min(Δx,Δy)² for a gallery deck — the
// implicit operator's stiffness parameter quoted in the constructors'
// doc comments.
func GalleryStiffness(d *deck.Deck) float64 {
	dx := (d.XMax - d.XMin) / float64(d.XCells)
	dy := (d.YMax - d.YMin) / float64(d.YCells)
	h := math.Min(dx, dy)
	return d.InitialTimestep / (h * h)
}

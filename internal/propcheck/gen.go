package propcheck

import (
	"fmt"
	"math"
	"math/rand"

	"tealeaf/internal/deck"
)

// Generator bounds. The mesh stays small enough that a full checker
// sweep (roughly a dozen solves per deck) is cheap, and the stiffness
// and contrast ranges are bounded so CG/PPCG converge to the tight eps
// the checkers need: runaway rx = dt·k/Δx² or extreme density jumps
// would make every solve slow and part legs by more than the multiple
// of eps the cross-leg comparisons allow (see legTol).
const (
	genMinCells2D = 8
	genMaxCells2D = 48
	genMinCells3D = 6
	genMaxCells3D = 14
	genMaxRegions = 4
	genMaxSteps   = 3
	genMinRx      = 0.05 // dt·kmax/minΔ², the implicit-step stiffness
	genMaxRx      = 500
)

// Gen draws one valid deck from r. Same rand state, same deck: the
// generator consumes a fixed number of variates per decision and never
// consults anything but r, so a seed fully determines the corpus.
//
// Sampled axes: dims ∈ {2,3}, mesh size and aspect ratio, domain origin
// and cell sizes, density/recip_density conductivity, a background plus
// up to four high-contrast regions (boxes, discs/spheres, points), the
// implicit-step stiffness regime (via dt), cg/ppcg, all three
// preconditioners, deep halos and the deflation hierarchy.
func Gen(r *rand.Rand) *deck.Deck {
	d := deck.Default()
	d.EndStep = 1 + r.Intn(genMaxSteps)
	// EndTime is set far beyond EndStep·dt so end_step alone sets the
	// horizon; Steps() then equals EndStep for any generated dt.
	d.EndTime = 1e12
	if r.Float64() < 0.35 {
		d.Dims = 3
	}

	if d.Dims == 2 {
		d.XCells = genMinCells2D + r.Intn(genMaxCells2D-genMinCells2D+1)
		aspect := math.Exp(uniform(r, math.Log(0.3), math.Log(3)))
		d.YCells = clampInt(int(float64(d.XCells)*aspect+0.5), genMinCells2D, genMaxCells2D)
	} else {
		d.XCells = genMinCells3D + r.Intn(genMaxCells3D-genMinCells3D+1)
		d.YCells = genMinCells3D + r.Intn(genMaxCells3D-genMinCells3D+1)
		d.ZCells = genMinCells3D + r.Intn(genMaxCells3D-genMinCells3D+1)
	}

	// Domain: random origin; cell sizes share a log-uniform base edge
	// with per-axis spread capped at √3 each way, so the directional
	// stiffness ratio (Δmax/Δmin)² stays ≤ 9. Unbounded anisotropy pushes
	// the operator's condition number past what a recurred-residual CG's
	// attainable-accuracy floor tolerates at tight eps (fuzz-found: a
	// 315× cell-aspect deck stalled the since-deleted pipelined engine at
	// 5e-10 relative).
	edge := logUniform(r, 0.05, 1.5)
	spread := func() float64 { return edge * logUniform(r, 1/math.Sqrt(3), math.Sqrt(3)) }
	d.XMin = uniform(r, -5, 5)
	d.XMax = d.XMin + float64(d.XCells)*spread()
	d.YMin = uniform(r, -5, 5)
	d.YMax = d.YMin + float64(d.YCells)*spread()
	d.ZMin = uniform(r, -5, 5)
	d.ZMax = d.ZMin + float64(d.ZCells)*spread()

	if r.Float64() < 0.5 {
		d.Coefficient = "recip_density"
	}

	// Background plus up to genMaxRegions jump regions. Density spans
	// [0.05, 20] in both directions, so two-region contrasts reach 400×.
	d.States = []deck.State{{
		Index:   1,
		Density: logUniform(r, 0.05, 20),
		Energy:  logUniform(r, 0.01, 5),
	}}
	for i, n := 0, r.Intn(genMaxRegions+1); i < n; i++ {
		d.States = append(d.States, genRegion(r, d, i+2))
	}

	// Solver axes.
	if r.Float64() < 0.4 {
		d.Solver = "ppcg"
		d.InnerSteps = 3 + r.Intn(8)
		d.EigenCGIters = 12 + r.Intn(9)
	}
	switch p := r.Float64(); {
	case p < 0.30:
		d.Precond = "jac_diag"
	case p < 0.45:
		d.Precond = "jac_block"
	}
	// The halo depth is PPCG's inner matrix-powers depth: the draws are
	// made for every deck, so each seed keeps its other axes, and kept on
	// PPCG decks only.
	if d.Precond != "jac_block" && r.Float64() < 0.35 {
		if depth := 2 + r.Intn(2); d.Solver == "ppcg" {
			d.HaloDepth = depth
		}
	}
	// Three draws of the deleted fused-dots, pipelined and split-sweep
	// axes, kept so every seed still generates the same decks on the
	// remaining axes.
	r.Float64()
	r.Float64()
	r.Float64()
	// The deleted tiling axis's draws, kept so seeds keep their decks.
	if r.Float64() < 0.30 {
		if r.Float64() < 0.5 {
			r.Intn(13)
		}
		if r.Float64() < 0.5 {
			r.Intn(7)
		}
		if d.Dims == 3 && r.Float64() < 0.5 {
			r.Intn(5)
		}
	}
	minCells := d.XCells
	if d.YCells < minCells {
		minCells = d.YCells
	}
	if d.Dims == 3 && d.ZCells < minCells {
		minCells = d.ZCells
	}
	if minCells >= 16 && r.Float64() < 0.25 {
		d.UseDeflation = true
		d.DeflationBlocks = 2 << r.Intn(2) // 2 or 4 blocks per direction
		if d.DeflationBlocks == 4 && r.Float64() < 0.5 {
			d.DeflationLevels = 2
		}
	}

	// dt regime: pick a target stiffness rx = dt·kmax/minΔ² and back out
	// dt, so "how implicit is the step" is sampled directly rather than
	// emerging from the domain/mesh/conductivity draws.
	minD := math.Min((d.XMax-d.XMin)/float64(d.XCells), (d.YMax-d.YMin)/float64(d.YCells))
	if d.Dims == 3 {
		minD = math.Min(minD, (d.ZMax-d.ZMin)/float64(d.ZCells))
	}
	kmax := 0.0
	for _, s := range d.States {
		w := s.Density
		if d.Coefficient == "recip_density" {
			w = 1 / s.Density
		}
		if w > kmax {
			kmax = w
		}
	}
	rx := logUniform(r, genMinRx, genMaxRx)
	d.InitialTimestep = clampFloat(rx*minD*minD/kmax, 1e-7, 100)

	// eps tiers: the stop tolerance must sit above the engine family's
	// attainable-accuracy floor, which grows with the implicit-step
	// stiffness (the since-deleted pipelined engine's recurrences lost
	// the most — fuzz-found stalls at ~3e-11 relative near rx ≈ 45). Mild
	// decks keep the tight 1e-12/1e-11 regime that stresses the rank, halo
	// and bit-identity contracts hardest.
	d.Eps = 1e-12
	if r.Float64() < 0.5 {
		d.Eps = 1e-11
	}
	switch {
	case rx > 30:
		d.Eps = 1e-9
	case rx > 5:
		d.Eps = 1e-10
	}
	// Deflated decks take the same tiers: the face-flux projector (PR 14)
	// differences λ before multiplying by the face coefficients, so it no
	// longer re-injects O(ε·‖A‖·‖λ‖) roundoff every iteration, and the
	// eps 1e-10 floor PR 9 put under deflated decks is gone.
	d.MaxIters = 30000

	if err := d.Validate(); err != nil {
		// The generator's bounds are chosen so every draw validates; a
		// rejection here is a propcheck bug, not a fuzz finding.
		panic(fmt.Sprintf("propcheck: generated deck invalid: %v\n%s", err, d.Format()))
	}
	return d
}

// genRegion draws one jump region: a box, a disc/sphere, or a point
// source, with density and energy drawn independently of the background
// so contrasts are high in either direction.
func genRegion(r *rand.Rand, d *deck.Deck, index int) deck.State {
	s := deck.State{
		Index:   index,
		Density: logUniform(r, 0.05, 20),
		Energy:  logUniform(r, 0.01, 25),
	}
	switch p := r.Float64(); {
	case p < 0.40:
		s.Geometry = deck.GeomRectangle
		s.XMin, s.XMax = subInterval(r, d.XMin, d.XMax)
		s.YMin, s.YMax = subInterval(r, d.YMin, d.YMax)
		if d.Dims == 3 {
			s.ZMin, s.ZMax = subInterval(r, d.ZMin, d.ZMax)
		}
	case p < 0.75:
		s.Geometry = deck.GeomCircle
		s.CX = uniform(r, d.XMin, d.XMax)
		s.CY = uniform(r, d.YMin, d.YMax)
		minW := math.Min(d.XMax-d.XMin, d.YMax-d.YMin)
		if d.Dims == 3 {
			s.CZ = uniform(r, d.ZMin, d.ZMax)
			minW = math.Min(minW, d.ZMax-d.ZMin)
		}
		s.Radius = uniform(r, 0.05, 0.4) * minW
	default:
		s.Geometry = deck.GeomPoint
		s.CX = uniform(r, d.XMin, d.XMax)
		s.CY = uniform(r, d.YMin, d.YMax)
		if d.Dims == 3 {
			s.CZ = uniform(r, d.ZMin, d.ZMax)
		}
	}
	return s
}

// subInterval draws a non-degenerate sub-interval of [lo, hi]: the low
// edge lands in the first 80% of the span and the width covers 10–90% of
// what remains, so boxes range from slivers to near-full coverage.
func subInterval(r *rand.Rand, lo, hi float64) (float64, float64) {
	a := lo + uniform(r, 0, 0.8)*(hi-lo)
	b := a + uniform(r, 0.1, 0.9)*(hi-a)
	return a, b
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(uniform(r, math.Log(lo), math.Log(hi)))
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

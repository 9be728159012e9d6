package problem

import (
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
)

// Paint3D applies the deck states to the interior cells of 3D density and
// energy fields. State 1 (no geometry) is the background; subsequent
// states overwrite cells whose centres fall inside their shape. A
// rectangle state is an axis-aligned box; a state with an empty z-range
// spans the whole domain in z, so 2D state definitions extrude naturally.
// A circle state is a sphere around (CX, CY, CZ). Because sub-grids carry
// true physical coordinates, the same call paints a rank-local grid
// correctly with no offset bookkeeping.
func Paint3D(states []deck.State, density, energy *grid.Field3D) error {
	if err := checkStates(states); err != nil {
		return err
	}
	g := density.Grid
	paint := func(st deck.State, j, k, i0, i1 int) {
		fill(density.Row(j, k, i0, i1), st.Density)
		fill(energy.Row(j, k, i0, i1), st.Energy)
	}
	cx := func(i int) float64 { x, _, _ := g.CellCenter(i, 0, 0); return x }
	cy := func(j int) float64 { _, y, _ := g.CellCenter(0, j, 0); return y }
	cz := func(k int) float64 { _, _, z := g.CellCenter(0, 0, k); return z }
	for _, st := range states {
		x0, x1, y0, y1, z0, z1 := 0, g.NX, 0, g.NY, 0, g.NZ // GeomNone: the whole interior
		switch st.Geometry {
		case deck.GeomRectangle:
			x0, x1 = notBeyond(g.NX, cx, st.XMin, st.XMax)
			y0, y1 = notBeyond(g.NY, cy, st.YMin, st.YMax)
			if st.ZMax > st.ZMin {
				z0, z1 = between(g.NZ, cz, st.ZMin, st.ZMax)
			} // else an empty z-range: the state extrudes through z
		case deck.GeomPoint:
			x0, x1 = containing(g.NX, g.VertexX, st.CX)
			y0, y1 = containing(g.NY, g.VertexY, st.CY)
			z0, z1 = containing(g.NZ, g.VertexZ, st.CZ)
		case deck.GeomCircle:
			piv := pivot(g.NX, cx, st.CX)
			for k := 0; k < g.NZ; k++ {
				for j := 0; j < g.NY; j++ {
					_, y, z := g.CellCenter(0, j, k)
					i0, i1 := dip(g.NX, piv, func(i int) bool { return inSphere(st, cx(i), y, z) })
					paint(st, j, k, i0, i1)
				}
			}
			continue
		case deck.GeomNone:
		default:
			continue // an unknown geometry paints nothing, as before
		}
		for k := z0; k < z1; k++ {
			for j := y0; j < y1; j++ {
				paint(st, j, k, x0, x1)
			}
		}
	}
	return nil
}

// inSphere is the circle state's 3D test of a cell centre (cx, cy, cz).
func inSphere(st deck.State, cx, cy, cz float64) bool {
	dx, dy, dz := cx-st.CX, cy-st.CY, cz-st.CZ
	return dx*dx+dy*dy+dz*dz <= st.Radius*st.Radius
}

// EnergyToU3D computes the solve variable u = density · energy over the
// interior.
func EnergyToU3D(density, energy, u *grid.Field3D) {
	g := density.Grid
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			mulRow(u.Row(j, k, 0, g.NX), density.Row(j, k, 0, g.NX), energy.Row(j, k, 0, g.NX))
		}
	}
}

// UToEnergy3D recovers energy = u / density after a solve.
func UToEnergy3D(density, u, energy *grid.Field3D) {
	g := density.Grid
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			divRow(energy.Row(j, k, 0, g.NX), u.Row(j, k, 0, g.NX), density.Row(j, k, 0, g.NX))
		}
	}
}

// StiffDeck3D is the 3D twin of StiffDeck: uniform unit density on the
// unit cube with Δt = 10, putting the per-step operator A = I + Δt·L deep
// in the near-steady regime where the smooth subdomain modes are genuine
// spectral outliers and deflation pays. The hot corner octant makes the
// right-hand side rich in exactly those modes.
func StiffDeck3D(n int) *deck.Deck {
	d := deck.Default()
	d.Dims = 3
	d.XCells, d.YCells, d.ZCells = n, n, n
	d.XMin, d.XMax = 0, 1
	d.YMin, d.YMax = 0, 1
	d.ZMin, d.ZMax = 0, 1
	d.InitialTimestep = 10
	d.EndStep = 2
	d.EndTime = 20
	d.Solver = "cg"
	d.Coefficient = "density"
	d.Eps = 1e-9
	d.States = []deck.State{
		{Index: 1, Density: 1, Energy: 0.1},
		{Index: 2, Density: 1, Energy: 1, Geometry: deck.GeomRectangle,
			XMin: 0, XMax: 0.25, YMin: 0, YMax: 0.25, ZMin: 0, ZMax: 0.25},
	}
	return d
}

// BenchmarkDeck3D is the 3D extension of the stock two-state benchmark: a
// dense cold background with one hot low-density box in the corner, on a
// 10×10×10 domain. The solver default is PPCG — the configuration the 3D
// scaling experiment sweeps.
func BenchmarkDeck3D(n int) *deck.Deck {
	d := deck.Default()
	d.Dims = 3
	d.XCells, d.YCells, d.ZCells = n, n, n
	d.XMin, d.XMax = 0, 10
	d.YMin, d.YMax = 0, 10
	d.ZMin, d.ZMax = 0, 10
	d.InitialTimestep = 0.004
	d.EndTime = 0.02
	d.EndStep = 5
	d.Solver = "ppcg"
	d.Precond = "jac_diag"
	d.Coefficient = "density"
	d.Eps = 1e-10
	d.States = []deck.State{
		{Index: 1, Density: 100, Energy: 0.0001},
		{Index: 2, Density: 0.1, Energy: 25, Geometry: deck.GeomRectangle,
			XMin: 0, XMax: 1, YMin: 1, YMax: 3, ZMin: 1, ZMax: 3},
	}
	return d
}

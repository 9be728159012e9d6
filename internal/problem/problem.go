// Package problem builds TeaLeaf initial conditions: it paints input-deck
// states onto density/energy fields and provides canned generators for the
// paper's workloads — most importantly the "crooked pipe" heat-diffusion
// test of §V-B, a dense low-conduction material crossed by a kinked pipe of
// low-density, high-conduction material with a heat source at its inlet.
//
// The painter and the energy conversions are each written once over the
// interior's grid.Rows walker; Paint and Paint3D differ only in how a
// state's shape is located on their grid (plane and volume).
package problem

import (
	"fmt"
	"sort"

	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
)

// Paint applies the deck states to the interior cells of density and
// energy. State 1 (no geometry) is the background; subsequent states
// overwrite cells whose centres fall inside their shape. Because sub-grids
// carry true physical coordinates, the same call paints a rank-local grid
// correctly with no offset bookkeeping.
func Paint(states []deck.State, density, energy *grid.Field2D) error {
	g := density.Grid
	return paint(states, g.Rows(g.Interior()), density.Data, energy.Data, plane{g}.region)
}

// Paint3D is Paint on a 3D grid. A rectangle state is an axis-aligned box;
// a state with an empty z-range spans the whole domain in z, so 2D state
// definitions extrude naturally. A circle state is a sphere around
// (CX, CY, CZ).
func Paint3D(states []deck.State, density, energy *grid.Field3D) error {
	g := density.Grid
	return paint(states, g.Rows(g.Interior()), density.Data, energy.Data, volume{g}.region)
}

// region is where one state holds on a grid's interior, in the terms of
// its grid.Rows walker: the rows j ∈ [j0, j1) of the outer indices
// k ∈ [k0, k1), and on each row the run of cells [x0, x1) = run(j, k).
type region struct {
	j0, j1, k0, k1 int
	run            func(j, k int) (x0, x1 int)
}

// box is the region of one x-run on every row.
func box(j0, j1, k0, k1, x0, x1 int) region {
	return region{j0, j1, k0, k1, func(int, int) (int, int) { return x0, x1 }}
}

// paint is the painter in both dimensions. Each state holds on one run of
// cells per row (see between, containing and dip), so it paints whole row
// runs, located by evaluating its per-cell test at O(log n) cells of a row
// rather than at every cell. locate gives a state's region; false (an
// unknown geometry) paints nothing.
func paint(states []deck.State, w grid.Rows, dd, ed []float64, locate func(deck.State) (region, bool)) error {
	if len(states) == 0 {
		return fmt.Errorf("problem: no states to paint")
	}
	if states[0].Geometry != deck.GeomNone {
		return fmt.Errorf("problem: first state must be the background (no geometry)")
	}
	for _, st := range states {
		r, ok := locate(st)
		if !ok {
			continue
		}
		for k := r.k0; k < r.k1; k++ {
			for j := r.j0; j < r.j1; j++ {
				o := w.Off(j, k) // the interior walker's rows start at x = 0
				x0, x1 := r.run(j, k)
				fill(dd[o+x0:o+x1], st.Density)
				fill(ed[o+x0:o+x1], st.Energy)
			}
		}
	}
	return nil
}

// plane locates states on a 2D grid: one row per y (j ∈ [0, 1), k = y).
type plane struct{ g *grid.Grid2D }

func (p plane) region(st deck.State) (region, bool) {
	g := p.g
	x0, x1, y0, y1 := 0, g.NX, 0, g.NY // GeomNone: the whole interior
	switch st.Geometry {
	case deck.GeomRectangle:
		x0, x1 = between(g.NX, g.CellCenterX, st.XMin, st.XMax)
		y0, y1 = between(g.NY, g.CellCenterY, st.YMin, st.YMax)
	case deck.GeomPoint:
		x0, x1 = containing(g.NX, g.VertexX, st.CX)
		y0, y1 = containing(g.NY, g.VertexY, st.CY)
	case deck.GeomCircle:
		piv := pivot(g.NX, g.CellCenterX, st.CX)
		return region{0, 1, 0, g.NY, func(_, k int) (int, int) {
			cy := g.CellCenterY(k)
			return dip(g.NX, piv, func(j int) bool { return inCircle(st, g.CellCenterX(j), cy) })
		}}, true
	case deck.GeomNone:
	default:
		return region{}, false
	}
	return box(0, 1, y0, y1, x0, x1), true
}

// volume locates states on a 3D grid: NY rows per z (j = y, k = z).
type volume struct{ g *grid.Grid3D }

func (v volume) region(st deck.State) (region, bool) {
	g := v.g
	cx := func(i int) float64 { x, _, _ := g.CellCenter(i, 0, 0); return x }
	cy := func(j int) float64 { _, y, _ := g.CellCenter(0, j, 0); return y }
	cz := func(k int) float64 { _, _, z := g.CellCenter(0, 0, k); return z }
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
		return region{0, g.NY, 0, g.NZ, func(j, k int) (int, int) {
			_, y, z := g.CellCenter(0, j, k)
			return dip(g.NX, piv, func(i int) bool { return inSphere(st, cx(i), y, z) })
		}}, true
	case deck.GeomNone:
	default:
		return region{}, false
	}
	return box(y0, y1, z0, z1, x0, x1), true
}

// inCircle is the circle state's test of a cell centre (cx, cy).
func inCircle(st deck.State, cx, cy float64) bool {
	dx, dy := cx-st.CX, cy-st.CY
	return dx*dx+dy*dy <= st.Radius*st.Radius
}

// inSphere is the circle state's 3D test of a cell centre (cx, cy, cz).
func inSphere(st deck.State, cx, cy, cz float64) bool {
	dx, dy, dz := cx-st.CX, cy-st.CY, cz-st.CZ
	return dx*dx+dy*dy+dz*dz <= st.Radius*st.Radius
}

// The painter's row runs. Along any axis a cell centre c(i) = min +
// (i+0.5)·d and a vertex v(i) = min + i·d are non-decreasing in i: i+0.5
// is exact, d > 0, and rounding a product or a sum is monotone. So a
// bound test on c or v holds on a prefix or a suffix of the cells, and
// the cells passing two such tests form one run, found by binary search
// with the very comparisons the per-cell test makes.

// between returns the run [a, b) of the n cells whose centre passes
// lo <= c(i) && c(i) <= hi. A NaN bound fails every cell, as it does
// per cell.
func between(n int, c func(int) float64, lo, hi float64) (a, b int) {
	a = sort.Search(n, func(i int) bool { return c(i) >= lo })
	b = sort.Search(n, func(i int) bool { return !(c(i) <= hi) })
	return a, max(a, b)
}

// notBeyond is between for the 3D box test, which rejects a cell with
// c(i) < lo || c(i) > hi; the two differ only on a NaN bound, which this
// test ignores.
func notBeyond(n int, c func(int) float64, lo, hi float64) (a, b int) {
	a = sort.Search(n, func(i int) bool { return !(c(i) < lo) })
	b = sort.Search(n, func(i int) bool { return c(i) > hi })
	return a, max(a, b)
}

// containing returns the run of cells whose half-open extent
// v(i) <= p < v(i+1) holds p: the one containing cell, or none when p
// lies outside [v(0), v(n)).
func containing(n int, v func(int) float64, p float64) (a, b int) {
	a = sort.Search(n, func(i int) bool { return p < v(i+1) })
	b = sort.Search(n, func(i int) bool { return !(p >= v(i)) })
	return a, max(a, b)
}

// pivot returns the first of the n cells whose centre is at or beyond
// the circle's centre p: dx = c(i) − p is negative before it and
// non-negative from it on.
func pivot(n int, c func(int) float64, p float64) int {
	return sort.Search(n, func(i int) bool { return c(i) >= p })
}

// dip returns the run [a, b) of the n cells of a row that pass a circle
// or sphere test in. Along the row, dx·dx falls up to the pivot cell and
// rises from it (dx is non-decreasing and changes sign at piv), and the
// rounded sum the test compares with r² is monotone in dx·dx, so the cells
// passing form one run. If it is not empty it holds the minimum, at piv−1
// or piv; from there each end is a binary search.
func dip(n, piv int, in func(int) bool) (a, b int) {
	s := -1
	if piv > 0 && in(piv-1) {
		s = piv - 1
	} else if piv < n && in(piv) {
		s = piv
	}
	if s < 0 {
		return 0, 0
	}
	a = sort.Search(s, in)
	b = s + 1 + sort.Search(n-s-1, func(i int) bool { return !in(s + 1 + i) })
	return a, b
}

func fill(row []float64, v float64) {
	for i := range row {
		row[i] = v
	}
}

// EnergyToU computes the solve variable u = density · energy (TeaLeaf's
// tea_leaf_init: the conserved quantity is energy density) over the
// interior.
func EnergyToU(density, energy, u *grid.Field2D) {
	g := density.Grid
	eachRow(g.Rows(g.Interior()), u.Data, density.Data, energy.Data, mulRow)
}

// EnergyToU3D is EnergyToU on a 3D grid.
func EnergyToU3D(density, energy, u *grid.Field3D) {
	g := density.Grid
	eachRow(g.Rows(g.Interior()), u.Data, density.Data, energy.Data, mulRow)
}

// UToEnergy recovers energy = u / density after a solve.
func UToEnergy(density, u, energy *grid.Field2D) {
	g := density.Grid
	eachRow(g.Rows(g.Interior()), energy.Data, u.Data, density.Data, divRow)
}

// UToEnergy3D is UToEnergy on a 3D grid.
func UToEnergy3D(density, u, energy *grid.Field3D) {
	g := density.Grid
	eachRow(g.Rows(g.Interior()), energy.Data, u.Data, density.Data, divRow)
}

// eachRow applies the row operation f(dst, a, b) to every row of w, in
// one serial pass in storage order.
func eachRow(w grid.Rows, dst, a, b []float64, f func(dst, a, b []float64)) {
	n := w.N()
	for k := w.K0; k < w.K1; k++ {
		for j := w.J0; j < w.J1; j++ {
			o := w.Off(j, k)
			f(dst[o:o+n], a[o:o+n], b[o:o+n])
		}
	}
}

// mulRow writes dst[i] = a[i]·b[i]; the re-slices to len(dst) let the
// compiler drop the bounds checks.
func mulRow(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// divRow writes dst[i] = a[i]/b[i].
func divRow(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] / b[i]
	}
}

// Domain extents of the canned problems. The crooked-pipe geometry
// matches the paper's Fig. 3 proportions; the physical units are chosen so
// the implicit operator's stiffness (rx = Δt/Δx²) at 4000² is in the same
// regime as the paper's reported run times imply.
const (
	DomainSize = 100.0
	// PipeDensity is the low-density pipe material. Under TeaLeaf's
	// standard "density" coefficient mode the face conduction is the
	// mean of 1/ρ, so the pipe conducts WallDensity/PipeDensity = 1000×
	// faster than the wall.
	PipeDensity = 0.01
	// WallDensity is the dense, low-conduction background.
	WallDensity = 10.0
	// ColdEnergy is the initial specific energy of the cold material.
	ColdEnergy = 1e-4
	// SourceEnergy is the hot inlet's specific energy.
	SourceEnergy = 25.0
	// PipeWidth is the pipe's cross-section (1/10 of the domain side,
	// matching the Fig. 3 aspect).
	PipeWidth = 10.0
)

// CrookedPipeDeck builds the §V-B strong-scaling workload at nx × ny
// cells: a dense cold wall material, a kinked low-density pipe traversing
// the domain left to right, and a hot source at the pipe inlet. The mesh
// resolution is the only parameter — the paper sweeps it up to 4000×4000
// (Fig. 4) and fixes 4000×4000 for the scaling studies (Figs. 5–8).
func CrookedPipeDeck(nx, ny int) *deck.Deck {
	d := deck.Default()
	d.XCells, d.YCells = nx, ny
	d.XMin, d.XMax = 0, DomainSize
	d.YMin, d.YMax = 0, DomainSize
	d.InitialTimestep = 0.04
	d.EndTime = 15.0
	d.EndStep = 375
	d.Solver = "ppcg"
	// TeaLeaf's "density" mode: face coefficient = mean of 1/ρ — the
	// low-density pipe is the fast conduction path (§V-B).
	d.Coefficient = "density"
	d.Eps = 1e-10

	w := PipeWidth / 2 // half-width
	const (
		inY  = 0.7 * DomainSize // inlet elevation
		midY = 0.3 * DomainSize // lower leg elevation
		x1   = 0.3 * DomainSize // first kink
		x2   = 0.7 * DomainSize // second kink
	)
	rect := func(idx int, den, en, xmin, xmax, ymin, ymax float64) deck.State {
		return deck.State{
			Index: idx, Density: den, Energy: en,
			Geometry: deck.GeomRectangle,
			XMin:     xmin, XMax: xmax, YMin: ymin, YMax: ymax,
		}
	}
	d.States = []deck.State{
		{Index: 1, Density: WallDensity, Energy: ColdEnergy},
		// The kinked pipe: left inlet leg, down-leg, bottom leg, up-leg,
		// right outlet leg. Segments overlap at the elbows.
		rect(2, PipeDensity, ColdEnergy, 0, x1+w, inY-w, inY+w),
		rect(3, PipeDensity, ColdEnergy, x1-w, x1+w, midY-w, inY+w),
		rect(4, PipeDensity, ColdEnergy, x1-w, x2+w, midY-w, midY+w),
		rect(5, PipeDensity, ColdEnergy, x2-w, x2+w, midY-w, inY+w),
		rect(6, PipeDensity, ColdEnergy, x2-w, DomainSize, inY-w, inY+w),
		// Hot source plugging the inlet.
		rect(7, PipeDensity, SourceEnergy, 0, 0.05*DomainSize, inY-w, inY+w),
	}
	return d
}

// StiffDeck is the near-steady stiff benchmark: uniform unit density on
// a unit domain with Δt = 10, so the per-step operator A = I + Δt·L has
// Δt·λ₂(L) ≫ 1 and the smooth low-energy subdomain modes are genuine
// spectral outliers. This is the regime where subdomain deflation
// (tl_use_deflation; §VII future work) pays — deflated CG needs
// substantially fewer iterations than plain CG here, while on the
// production-Δt decks the low modes sit at 1+ε and deflation is neutral.
func StiffDeck(n int) *deck.Deck {
	d := deck.Default()
	d.XCells, d.YCells = n, n
	d.XMin, d.XMax = 0, 1
	d.YMin, d.YMax = 0, 1
	d.InitialTimestep = 10
	d.EndStep = 2
	d.EndTime = 20
	d.Solver = "cg"
	d.Coefficient = "density"
	d.Eps = 1e-9
	d.States = []deck.State{
		{Index: 1, Density: 1, Energy: 0.1},
		// Hot corner quarter: a right-hand side rich in the smooth modes
		// deflation removes.
		{Index: 2, Density: 1, Energy: 1, Geometry: deck.GeomRectangle,
			XMin: 0, XMax: 0.25, YMin: 0, YMax: 0.25},
	}
	return d
}

// StiffDeck3D is StiffDeck on the unit cube: the same near-steady
// regime, with the hot corner extended to an octant (z ∈ [0, 0.25]).
func StiffDeck3D(n int) *deck.Deck {
	d := StiffDeck(n)
	d.Dims, d.ZCells = 3, n
	d.ZMin, d.ZMax = 0, 1
	d.States[1].ZMin, d.States[1].ZMax = 0, 0.25
	return d
}

// BenchmarkDeck is the stock tea.in two-state benchmark (the tea_bm
// series): background of dense cold material with one hot low-density
// rectangle in the corner. Useful as a quick-running validation problem.
func BenchmarkDeck(n int) *deck.Deck {
	d := deck.Default()
	d.XCells, d.YCells = n, n
	// The stock benchmark uses the original 10×10 domain (stiffer than
	// the rescaled crooked pipe — it exists to exercise solvers hard at
	// small mesh sizes).
	d.XMin, d.XMax = 0, 10
	d.YMin, d.YMax = 0, 10
	d.InitialTimestep = 0.004
	d.EndTime = 0.02
	d.EndStep = 5
	d.Solver = "cg"
	d.Coefficient = "density"
	d.Eps = 1e-10
	d.States = []deck.State{
		{Index: 1, Density: 100, Energy: 0.0001},
		{Index: 2, Density: 0.1, Energy: 25, Geometry: deck.GeomRectangle,
			XMin: 0, XMax: 1, YMin: 1, YMax: 3},
	}
	return d
}

// BenchmarkDeck3D is the 3D extension of the stock two-state benchmark: a
// dense cold background with one hot low-density box in the corner, on a
// 10×10×10 domain. The solver default is PPCG with jac_diag — the
// configuration the 3D scaling experiment sweeps.
func BenchmarkDeck3D(n int) *deck.Deck {
	d := BenchmarkDeck(n)
	d.Dims, d.ZCells = 3, n
	d.ZMin, d.ZMax = 0, 10
	d.Solver, d.Precond = "ppcg", "jac_diag"
	d.States[1].ZMin, d.States[1].ZMax = 1, 3
	return d
}

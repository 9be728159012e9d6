package problem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
)

// The painter before it worked in row runs: every state tested against
// every interior cell. It is the oracle the run painter must match byte
// for byte.

func oraclePaint(states []deck.State, density, energy *grid.Field2D) error {
	if len(states) == 0 {
		return fmt.Errorf("problem: no states to paint")
	}
	if states[0].Geometry != deck.GeomNone {
		return fmt.Errorf("problem: first state must be the background (no geometry)")
	}
	g := density.Grid
	bg := states[0]
	density.FillBounds(g.Interior(), bg.Density)
	energy.FillBounds(g.Interior(), bg.Energy)

	for _, st := range states[1:] {
		for k := 0; k < g.NY; k++ {
			cy := g.CellCenterY(k)
			for j := 0; j < g.NX; j++ {
				cx := g.CellCenterX(j)
				if inside(st, cx, cy, g, j, k) {
					density.Set(j, k, st.Density)
					energy.Set(j, k, st.Energy)
				}
			}
		}
	}
	return nil
}

func inside(st deck.State, cx, cy float64, g *grid.Grid2D, j, k int) bool {
	switch st.Geometry {
	case deck.GeomRectangle:
		return cx >= st.XMin && cx <= st.XMax && cy >= st.YMin && cy <= st.YMax
	case deck.GeomCircle:
		dx, dy := cx-st.CX, cy-st.CY
		return dx*dx+dy*dy <= st.Radius*st.Radius
	case deck.GeomPoint:
		return st.CX >= g.VertexX(j) && st.CX < g.VertexX(j+1) &&
			st.CY >= g.VertexY(k) && st.CY < g.VertexY(k+1)
	case deck.GeomNone:
		return true
	}
	return false
}

func oraclePaint3D(states []deck.State, density, energy *grid.Field3D) error {
	if len(states) == 0 {
		return fmt.Errorf("problem: no states to paint")
	}
	if states[0].Geometry != deck.GeomNone {
		return fmt.Errorf("problem: first state must be the background (no geometry)")
	}
	g := density.Grid
	bg := states[0]
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				density.Set(i, j, k, bg.Density)
				energy.Set(i, j, k, bg.Energy)
			}
		}
	}
	for _, st := range states[1:] {
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					cx, cy, cz := g.CellCenter(i, j, k)
					if inside3D(st, cx, cy, cz, g, i, j, k) {
						density.Set(i, j, k, st.Density)
						energy.Set(i, j, k, st.Energy)
					}
				}
			}
		}
	}
	return nil
}

func inside3D(st deck.State, cx, cy, cz float64, g *grid.Grid3D, i, j, k int) bool {
	switch st.Geometry {
	case deck.GeomRectangle:
		if cx < st.XMin || cx > st.XMax || cy < st.YMin || cy > st.YMax {
			return false
		}
		if st.ZMax > st.ZMin {
			return cz >= st.ZMin && cz <= st.ZMax
		}
		return true // empty z-range: the state extrudes through z
	case deck.GeomCircle:
		dx, dy, dz := cx-st.CX, cy-st.CY, cz-st.CZ
		return dx*dx+dy*dy+dz*dz <= st.Radius*st.Radius
	case deck.GeomPoint:
		return st.CX >= g.VertexX(i) && st.CX < g.VertexX(i+1) &&
			st.CY >= g.VertexY(j) && st.CY < g.VertexY(j+1) &&
			st.CZ >= g.VertexZ(k) && st.CZ < g.VertexZ(k+1)
	case deck.GeomNone:
		return true
	}
	return false
}

// axis describes one grid axis for the state generator: n cells of width
// d from lo, with the grid's own centre and vertex expressions.
type axis struct {
	n         int
	lo, d     float64
	centre    func(int) float64
	vertex    func(int) float64
	span, mid float64
}

func newAxis(n int, lo, hi float64, centre, vertex func(int) float64) axis {
	return axis{n: n, lo: lo, d: (hi - lo) / float64(n), centre: centre, vertex: vertex,
		span: hi - lo, mid: (lo + hi) / 2}
}

// coord draws a coordinate on a: exactly on a cell centre or a vertex
// (including ones just outside the grid), anywhere in or around the
// domain, far outside it, or occasionally non-finite.
func (a axis) coord(rng *rand.Rand) float64 {
	j := rng.Intn(a.n+6) - 3
	switch r := rng.Intn(20); {
	case r < 6:
		return a.centre(j)
	case r < 11:
		return a.vertex(j)
	case r < 17:
		return a.lo + (rng.Float64()*1.6-0.3)*a.span
	case r < 18:
		return a.mid + float64(rng.Intn(2)*2-1)*(2+rng.Float64())*a.span
	case r < 19:
		return math.Inf(rng.Intn(2)*2 - 1)
	}
	return math.NaN()
}

// bounds draws an ordered pair (and now and then a reversed one, an
// empty range).
func (a axis) bounds(rng *rand.Rand) (lo, hi float64) {
	lo, hi = a.coord(rng), a.coord(rng)
	if hi < lo && rng.Intn(8) != 0 {
		lo, hi = hi, lo
	}
	return lo, hi
}

// radius draws a circle radius: zero, a multiple of the cell width (so
// the circle passes through centres when its centre sits on one), or
// anything up to past the domain.
func radius(rng *rand.Rand, ax axis) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1, 2:
		return float64(rng.Intn(ax.n+1)) * ax.d
	case 3:
		return (float64(rng.Intn(2*ax.n+1)) + 0.5) * ax.d
	}
	return rng.Float64() * 1.2 * ax.span
}

func randomStates(rng *rand.Rand, x, y, z axis, dims int) []deck.State {
	states := []deck.State{{Index: 1, Density: 1 + rng.Float64(), Energy: rng.Float64()}}
	geoms := []deck.Geometry{deck.GeomRectangle, deck.GeomCircle, deck.GeomPoint}
	for n := 1 + rng.Intn(6); n > 0; n-- {
		st := deck.State{Index: len(states) + 1, Density: rng.Float64() + 0.1, Energy: rng.Float64(),
			Geometry: geoms[rng.Intn(len(geoms))]}
		switch st.Geometry {
		case deck.GeomRectangle:
			st.XMin, st.XMax = x.bounds(rng)
			st.YMin, st.YMax = y.bounds(rng)
			if dims == 3 && rng.Intn(3) != 0 {
				st.ZMin, st.ZMax = z.bounds(rng) // else the empty z-range extrusion
			}
		case deck.GeomCircle:
			st.CX, st.CY, st.Radius = x.coord(rng), y.coord(rng), radius(rng, x)
			if dims == 3 {
				st.CZ = z.coord(rng)
			}
		case deck.GeomPoint:
			st.CX, st.CY = x.coord(rng), y.coord(rng)
			if dims == 3 {
				st.CZ = z.coord(rng)
			}
		}
		states = append(states, st)
	}
	return states
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// randomExtent draws a domain interval that does not divide into nice
// binary fractions, so cell centres round.
func randomExtent(rng *rand.Rand) (lo, hi float64) {
	lo = (rng.Float64() - 0.5) * 20
	return lo, lo + 0.3 + rng.Float64()*15
}

// checkPaint2D paints states onto g both ways and compares every word of
// the fields, halos included.
func checkPaint2D(t *testing.T, g *grid.Grid2D, states []deck.State) {
	t.Helper()
	den, en := grid.NewField2D(g), grid.NewField2D(g)
	wden, wen := grid.NewField2D(g), grid.NewField2D(g)
	if err := Paint(states, den, en); err != nil {
		t.Fatal(err)
	}
	if err := oraclePaint(states, wden, wen); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want *grid.Field2D
	}{{"density", den, wden}, {"energy", en, wen}} {
		if i := sameBits(c.got.Data, c.want.Data); i >= 0 {
			j, k := g.Coords(i)
			t.Fatalf("%v: %s differs at (%d,%d): %v, oracle %v\nstates %+v",
				g, c.name, j, k, c.got.Data[i], c.want.Data[i], states)
		}
	}
}

func checkPaint3D(t *testing.T, g *grid.Grid3D, states []deck.State) {
	t.Helper()
	den, en := grid.NewField3D(g), grid.NewField3D(g)
	wden, wen := grid.NewField3D(g), grid.NewField3D(g)
	if err := Paint3D(states, den, en); err != nil {
		t.Fatal(err)
	}
	if err := oraclePaint3D(states, wden, wen); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want *grid.Field3D
	}{{"density", den, wden}, {"energy", en, wen}} {
		if i := sameBits(c.got.Data, c.want.Data); i >= 0 {
			t.Fatalf("%v: %s differs at flat index %d: %v, oracle %v\nstates %+v",
				g, c.name, i, c.got.Data[i], c.want.Data[i], states)
		}
	}
}

// TestPaintMatchesPerCellOracle paints random rectangles, circles and
// points — edges on cell centres and vertices, zero radii, states partly
// or wholly off the domain — on random grids and on every sub-grid of a
// 2×2 partition (non-zero offsets), and requires the run painter's
// density and energy to equal the per-cell oracle's bit for bit.
func TestPaintMatchesPerCellOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		nx, ny := 2+rng.Intn(40), 2+rng.Intn(40)
		xlo, xhi := randomExtent(rng)
		ylo, yhi := randomExtent(rng)
		gg := grid.MustGrid2D(nx, ny, 1+rng.Intn(3), xlo, xhi, ylo, yhi)
		x := newAxis(nx, xlo, xhi, gg.CellCenterX, gg.VertexX)
		y := newAxis(ny, ylo, yhi, gg.CellCenterY, gg.VertexY)
		states := randomStates(rng, x, y, axis{}, 2)
		checkPaint2D(t, gg, states)
		part := grid.MustPartition(nx, ny, 2, 2)
		for r := 0; r < part.Ranks(); r++ {
			e := part.ExtentOf(r)
			sub, err := gg.Sub(e.X0, e.X1, e.Y0, e.Y1)
			if err != nil {
				t.Fatal(err)
			}
			checkPaint2D(t, sub, states)
		}
	}
}

// TestPaint3DMatchesPerCellOracle is the 3D twin, with spheres, boxes
// whose z-range is empty (extruded through z) and the sub-grids of a
// 2×1×2 partition.
func TestPaint3DMatchesPerCellOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		nx, ny, nz := 2+rng.Intn(14), 1+rng.Intn(14), 2+rng.Intn(14)
		xlo, xhi := randomExtent(rng)
		ylo, yhi := randomExtent(rng)
		zlo, zhi := randomExtent(rng)
		gg, err := grid.NewGrid3D(nx, ny, nz, 1+rng.Intn(2), xlo, xhi, ylo, yhi, zlo, zhi)
		if err != nil {
			t.Fatal(err)
		}
		centre := func(d int) func(int) float64 {
			return func(i int) float64 {
				c := [3]int{}
				c[d] = i
				x, y, z := gg.CellCenter(c[0], c[1], c[2])
				return [3]float64{x, y, z}[d]
			}
		}
		x := newAxis(nx, xlo, xhi, centre(0), gg.VertexX)
		y := newAxis(ny, ylo, yhi, centre(1), gg.VertexY)
		z := newAxis(nz, zlo, zhi, centre(2), gg.VertexZ)
		states := randomStates(rng, x, y, z, 3)
		checkPaint3D(t, gg, states)
		part := grid.MustPartition3D(nx, ny, nz, 2, 1, 2)
		for r := 0; r < part.Ranks(); r++ {
			e := part.ExtentOf(r)
			sub, err := gg.Sub(e.X0, e.X1, e.Y0, e.Y1, e.Z0, e.Z1)
			if err != nil {
				t.Fatal(err)
			}
			checkPaint3D(t, sub, states)
		}
	}
}

// TestPaintRunEdgeCases pins the cases the random draw hits only by
// luck: a zero-radius circle centred exactly on a cell centre paints that
// one cell; a point on a vertex paints the cell above/right of it; a
// rectangle whose edges sit exactly on cell centres includes those cells;
// and a state that misses the domain paints nothing.
func TestPaintRunEdgeCases(t *testing.T) {
	g := grid.MustGrid2D(10, 8, 2, -1.3, 6.1, 0.7, 9.1)
	bg := deck.State{Index: 1, Density: 1, Energy: 1}
	cases := []struct {
		name  string
		st    deck.State
		cells int
	}{
		{"zero-radius circle on a centre", deck.State{Geometry: deck.GeomCircle,
			CX: g.CellCenterX(4), CY: g.CellCenterY(5)}, 1},
		{"zero-radius circle between centres", deck.State{Geometry: deck.GeomCircle,
			CX: g.VertexX(4), CY: g.CellCenterY(5)}, 0},
		{"point on a vertex", deck.State{Geometry: deck.GeomPoint,
			CX: g.VertexX(3), CY: g.VertexY(2)}, 1},
		{"point on the far vertex", deck.State{Geometry: deck.GeomPoint,
			CX: g.VertexX(10), CY: g.VertexY(2)}, 0},
		{"rectangle on centres", deck.State{Geometry: deck.GeomRectangle,
			XMin: g.CellCenterX(2), XMax: g.CellCenterX(5), YMin: g.CellCenterY(1), YMax: g.CellCenterY(1)}, 4},
		{"rectangle off the domain", deck.State{Geometry: deck.GeomRectangle,
			XMin: 7, XMax: 9, YMin: 0, YMax: 10}, 0},
		{"circle covering the domain", deck.State{Geometry: deck.GeomCircle,
			CX: 2, CY: 5, Radius: 100}, 80},
	}
	for _, c := range cases {
		c.st.Index, c.st.Density, c.st.Energy = 2, 5, 5
		states := []deck.State{bg, c.st}
		checkPaint2D(t, g, states)
		den, en := grid.NewField2D(g), grid.NewField2D(g)
		if err := Paint(states, den, en); err != nil {
			t.Fatal(err)
		}
		painted := 0
		for k := 0; k < g.NY; k++ {
			for j := 0; j < g.NX; j++ {
				if den.At(j, k) == c.st.Density {
					painted++
				}
			}
		}
		if painted != c.cells {
			t.Errorf("%s: painted %d cells, want %d", c.name, painted, c.cells)
		}
	}
}

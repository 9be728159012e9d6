package problem

import (
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
)

func TestPaintBackgroundOnly(t *testing.T) {
	g := grid.MustGrid2D(8, 8, 1, 0, 10, 0, 10)
	den := grid.NewField2D(g)
	en := grid.NewField2D(g)
	states := []deck.State{{Index: 1, Density: 5, Energy: 0.5}}
	if err := Paint(states, den, en); err != nil {
		t.Fatal(err)
	}
	lo, hi := den.MinMaxInterior()
	if lo != 5 || hi != 5 {
		t.Errorf("density = [%v,%v], want uniform 5", lo, hi)
	}
	if en.At(3, 3) != 0.5 {
		t.Error("energy not painted")
	}
}

func TestPaintValidation(t *testing.T) {
	g := grid.MustGrid2D(4, 4, 1, 0, 1, 0, 1)
	den := grid.NewField2D(g)
	en := grid.NewField2D(g)
	if err := Paint(nil, den, en); err == nil {
		t.Error("no states must error")
	}
	bad := []deck.State{{Index: 1, Density: 1, Energy: 1, Geometry: deck.GeomRectangle}}
	if err := Paint(bad, den, en); err == nil {
		t.Error("background with geometry must error")
	}
}

func TestPaintRectangle(t *testing.T) {
	g := grid.MustGrid2D(10, 10, 1, 0, 10, 0, 10)
	den := grid.NewField2D(g)
	en := grid.NewField2D(g)
	states := []deck.State{
		{Index: 1, Density: 1, Energy: 0},
		{Index: 2, Density: 9, Energy: 2, Geometry: deck.GeomRectangle,
			XMin: 2, XMax: 5, YMin: 3, YMax: 7},
	}
	if err := Paint(states, den, en); err != nil {
		t.Fatal(err)
	}
	// Cell (3,4) centre is (3.5, 4.5): inside.
	if den.At(3, 4) != 9 || en.At(3, 4) != 2 {
		t.Error("interior of rectangle not painted")
	}
	// Cell (0,0) centre (0.5,0.5): outside.
	if den.At(0, 0) != 1 {
		t.Error("outside rectangle must stay background")
	}
	// Cell (1,3) centre (1.5,3.5): x outside [2,5].
	if den.At(1, 3) != 1 {
		t.Error("left of rectangle painted wrongly")
	}
}

func TestPaintCircle(t *testing.T) {
	g := grid.MustGrid2D(20, 20, 1, 0, 10, 0, 10)
	den := grid.NewField2D(g)
	en := grid.NewField2D(g)
	states := []deck.State{
		{Index: 1, Density: 1, Energy: 0},
		{Index: 2, Density: 3, Energy: 1, Geometry: deck.GeomCircle, CX: 5, CY: 5, Radius: 2},
	}
	if err := Paint(states, den, en); err != nil {
		t.Fatal(err)
	}
	// Centre cell.
	if den.At(10, 10) != 3 {
		t.Error("circle centre not painted")
	}
	// Far corner.
	if den.At(0, 0) != 1 {
		t.Error("far corner painted")
	}
	// Count painted cells ≈ π r² / cell area = π·4/0.25 ≈ 50.
	painted := 0
	for k := 0; k < 20; k++ {
		for j := 0; j < 20; j++ {
			if den.At(j, k) == 3 {
				painted++
			}
		}
	}
	if painted < 40 || painted > 60 {
		t.Errorf("circle painted %d cells, expected ≈ 50", painted)
	}
}

func TestPaintPoint(t *testing.T) {
	g := grid.MustGrid2D(10, 10, 1, 0, 10, 0, 10)
	den := grid.NewField2D(g)
	en := grid.NewField2D(g)
	states := []deck.State{
		{Index: 1, Density: 1, Energy: 0},
		{Index: 2, Density: 7, Energy: 1, Geometry: deck.GeomPoint, CX: 3.7, CY: 8.2},
	}
	if err := Paint(states, den, en); err != nil {
		t.Fatal(err)
	}
	painted := 0
	for k := 0; k < 10; k++ {
		for j := 0; j < 10; j++ {
			if den.At(j, k) == 7 {
				painted++
				if j != 3 || k != 8 {
					t.Errorf("point painted wrong cell (%d,%d)", j, k)
				}
			}
		}
	}
	if painted != 1 {
		t.Errorf("point painted %d cells, want 1", painted)
	}
}

func TestPaintLaterStatesOverwrite(t *testing.T) {
	g := grid.MustGrid2D(10, 10, 1, 0, 10, 0, 10)
	den := grid.NewField2D(g)
	en := grid.NewField2D(g)
	states := []deck.State{
		{Index: 1, Density: 1, Energy: 0},
		{Index: 2, Density: 2, Energy: 1, Geometry: deck.GeomRectangle, XMin: 0, XMax: 10, YMin: 0, YMax: 10},
		{Index: 3, Density: 3, Energy: 2, Geometry: deck.GeomRectangle, XMin: 4, XMax: 6, YMin: 4, YMax: 6},
	}
	if err := Paint(states, den, en); err != nil {
		t.Fatal(err)
	}
	if den.At(5, 5) != 3 {
		t.Error("later state must overwrite earlier")
	}
	if den.At(1, 1) != 2 {
		t.Error("earlier state must survive outside later geometry")
	}
}

func TestPaintSubGridMatchesGlobal(t *testing.T) {
	// Painting a sub-grid must produce exactly the global painting
	// restricted to the extent — the distributed initialisation path.
	d := CrookedPipeDeck(40, 40)
	gg := grid.MustGrid2D(40, 40, 2, d.XMin, d.XMax, d.YMin, d.YMax)
	gden := grid.NewField2D(gg)
	gen := grid.NewField2D(gg)
	if err := Paint(d.States, gden, gen); err != nil {
		t.Fatal(err)
	}
	sub, err := gg.Sub(10, 30, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	sden := grid.NewField2D(sub)
	sen := grid.NewField2D(sub)
	if err := Paint(d.States, sden, sen); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < sub.NY; k++ {
		for j := 0; j < sub.NX; j++ {
			if sden.At(j, k) != gden.At(10+j, 20+k) {
				t.Fatalf("sub-grid density differs at (%d,%d)", j, k)
			}
			if sen.At(j, k) != gen.At(10+j, 20+k) {
				t.Fatalf("sub-grid energy differs at (%d,%d)", j, k)
			}
		}
	}
}

func TestEnergyToURoundTrip(t *testing.T) {
	g := grid.MustGrid2D(6, 6, 1, 0, 1, 0, 1)
	den := grid.NewField2D(g)
	en := grid.NewField2D(g)
	u := grid.NewField2D(g)
	out := grid.NewField2D(g)
	for k := 0; k < 6; k++ {
		for j := 0; j < 6; j++ {
			den.Set(j, k, float64(j+1))
			en.Set(j, k, float64(k+1)*0.25)
		}
	}
	EnergyToU(den, en, u)
	if u.At(2, 3) != 3*1.0 {
		t.Errorf("u(2,3) = %v, want 3", u.At(2, 3))
	}
	UToEnergy(den, u, out)
	if out.MaxDiff(en) > 1e-15 {
		t.Error("round trip broke energy")
	}
}

// TestEnergyConversionsMatchPerCell pins the row-slice conversions to
// the per-cell u = ρ·e and e = u/ρ bit for bit, 2D and 3D, and requires
// them to leave the halos alone.
func TestEnergyConversionsMatchPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fill := func(data []float64) {
		for i := range data {
			data[i] = math.Pow(10, rng.Float64()*6-3)
		}
	}
	g := grid.MustGrid2D(13, 7, 2, 0, 1, 0, 1)
	den, en, u := grid.NewField2D(g), grid.NewField2D(g), grid.NewField2D(g)
	fill(den.Data)
	fill(en.Data)
	fill(u.Data)
	u0, en0 := u.Clone(), en.Clone()
	EnergyToU(den, en, u)
	UToEnergy(den, u0, en)
	for i := range den.Data {
		wantU, wantE := u0.Data[i], en0.Data[i]
		if j, k := g.Coords(i); g.InInterior(j, k) {
			wantU, wantE = den.Data[i]*en0.Data[i], u0.Data[i]/den.Data[i]
		}
		if math.Float64bits(u.Data[i]) != math.Float64bits(wantU) || math.Float64bits(en.Data[i]) != math.Float64bits(wantE) {
			t.Fatalf("2D conversions differ from the per-cell forms at flat index %d", i)
		}
	}

	g3 := grid.UnitGrid3D(5, 3, 4, 2)
	den3, en3, u3 := grid.NewField3D(g3), grid.NewField3D(g3), grid.NewField3D(g3)
	fill(den3.Data)
	fill(en3.Data)
	fill(u3.Data)
	u30, en30 := u3.Clone(), en3.Clone()
	EnergyToU3D(den3, en3, u3)
	UToEnergy3D(den3, u30, en3)
	for k := -2; k < g3.NZ+2; k++ {
		for j := -2; j < g3.NY+2; j++ {
			for i := -2; i < g3.NX+2; i++ {
				wantU, wantE := u30.At(i, j, k), en30.At(i, j, k)
				if g3.InInterior(i, j, k) {
					wantU, wantE = den3.At(i, j, k)*en30.At(i, j, k), u30.At(i, j, k)/den3.At(i, j, k)
				}
				if math.Float64bits(u3.At(i, j, k)) != math.Float64bits(wantU) || math.Float64bits(en3.At(i, j, k)) != math.Float64bits(wantE) {
					t.Fatalf("3D conversions differ from the per-cell forms at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestCrookedPipeDeckStructure(t *testing.T) {
	d := CrookedPipeDeck(100, 100)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Steps() != 375 {
		t.Errorf("steps = %d, want 375 (15 µs at 0.04 µs)", d.Steps())
	}
	if d.Coefficient != "density" {
		t.Error("crooked pipe uses TeaLeaf's density mode (face coefficient ∝ 1/ρ: low-density pipe conducts)")
	}
	g := grid.MustGrid2D(100, 100, 2, d.XMin, d.XMax, d.YMin, d.YMax)
	den := grid.NewField2D(g)
	en := grid.NewField2D(g)
	if err := Paint(d.States, den, en); err != nil {
		t.Fatal(err)
	}
	// The pipe must connect the left edge to the right edge: walk a flood
	// fill over low-density cells from the inlet.
	visited := make(map[[2]int]bool)
	stack := [][2]int{}
	for k := 0; k < 100; k++ {
		if den.At(0, k) == PipeDensity {
			stack = append(stack, [2]int{0, k})
		}
	}
	if len(stack) == 0 {
		t.Fatal("no pipe cells on the left edge")
	}
	reachedRight := false
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[c] {
			continue
		}
		visited[c] = true
		if c[0] == 99 {
			reachedRight = true
			break
		}
		for _, d4 := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nj, nk := c[0]+d4[0], c[1]+d4[1]
			if nj >= 0 && nj < 100 && nk >= 0 && nk < 100 &&
				!visited[[2]int{nj, nk}] && den.At(nj, nk) == PipeDensity {
				stack = append(stack, [2]int{nj, nk})
			}
		}
	}
	if !reachedRight {
		t.Error("pipe does not traverse the domain")
	}
	// There must be a hot source region.
	_, hi := en.MinMaxInterior()
	if hi != SourceEnergy {
		t.Errorf("max energy = %v, want source %v", hi, SourceEnergy)
	}
	// The pipe must actually kink: some pipe cells far from the inlet row.
	kinked := false
	for c := range visited {
		if math.Abs(float64(c[1])-70) > 15 { // inlet row is k≈70
			kinked = true
			break
		}
	}
	if !kinked {
		t.Error("pipe has no kinks")
	}
}

func TestBenchmarkDeck(t *testing.T) {
	d := BenchmarkDeck(16)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.States) != 2 {
		t.Errorf("states = %d", len(d.States))
	}
	if d.States[1].Density >= d.States[0].Density {
		t.Error("hot region must be low density")
	}
}

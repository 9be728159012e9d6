package grid

import (
	"testing"
	"testing/quick"
)

func TestPartition3DExtentsTile(t *testing.T) {
	p := MustPartition3D(10, 7, 5, 3, 2, 2)
	if p.Ranks() != 12 {
		t.Fatalf("ranks = %d", p.Ranks())
	}
	seen := make(map[[3]int]int)
	cells := 0
	for r := 0; r < p.Ranks(); r++ {
		e := p.ExtentOf(r)
		if e.NX() <= 0 || e.NY() <= 0 || e.NZ() <= 0 {
			t.Fatalf("rank %d: empty extent %+v", r, e)
		}
		cells += e.Cells()
		for k := e.Z0; k < e.Z1; k++ {
			for j := e.Y0; j < e.Y1; j++ {
				for i := e.X0; i < e.X1; i++ {
					seen[[3]int{i, j, k}]++
				}
			}
		}
	}
	if cells != 10*7*5 {
		t.Errorf("total cells = %d, want %d", cells, 10*7*5)
	}
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("cell %v owned %d times", c, n)
		}
	}
}

func TestPartition3DCoordsRoundTrip(t *testing.T) {
	p := MustPartition3D(8, 8, 8, 2, 2, 2)
	for r := 0; r < p.Ranks(); r++ {
		cx, cy, cz := p.CoordsOf(r)
		if got := p.RankAt(cx, cy, cz); got != r {
			t.Errorf("rank %d -> (%d,%d,%d) -> %d", r, cx, cy, cz, got)
		}
	}
	if p.RankAt(-1, 0, 0) != -1 || p.RankAt(0, 2, 0) != -1 || p.RankAt(0, 0, 2) != -1 {
		t.Error("out-of-grid coordinates must map to -1")
	}
}

func TestPartition3DNeighborsAndBoundary(t *testing.T) {
	p := MustPartition3D(6, 6, 6, 2, 2, 2)
	r := p.RankAt(0, 0, 0)
	if !p.OnBoundary(r, Left) || !p.OnBoundary(r, Down) || !p.OnBoundary(r, Back) {
		t.Error("corner rank must touch low boundaries")
	}
	if p.OnBoundary(r, Right) || p.OnBoundary(r, Up) || p.OnBoundary(r, Front) {
		t.Error("corner rank must have high-side neighbours")
	}
	for _, s := range []Side{Left, Right, Down, Up, Back, Front} {
		n := p.Neighbor(r, s)
		if n < 0 {
			continue
		}
		if back := p.Neighbor(n, s.Opposite()); back != r {
			t.Errorf("side %v: neighbour %d's %v neighbour is %d, want %d", s, n, s.Opposite(), back, r)
		}
	}
}

func TestPartition3DValidation(t *testing.T) {
	if _, err := NewPartition3D(4, 4, 4, 5, 1, 1); err == nil {
		t.Error("more ranks than cells must error")
	}
	if _, err := NewPartition3D(0, 4, 4, 1, 1, 1); err == nil {
		t.Error("zero cells must error")
	}
}

func TestBounds3DExpandSidesAndCells(t *testing.T) {
	g := UnitGrid3D(8, 8, 8, 3)
	in := g.Interior()
	b := in.ExpandSides(2, 2, 0, 2, 2, 0, g)
	if b != (Bounds3D{-2, 10, 0, 10, -2, 8}) {
		t.Fatalf("expanded = %v", b)
	}
	if c := in.ExpandSides(4, 0, 0, 0, 0, 5, g); c != (Bounds3D{-3, 8, 0, 8, 0, 11}) {
		t.Fatalf("growth past the padding must stop at it, got %v", c)
	}
	if in.Cells() != 512 || (Bounds3D{0, 0, 0, 5, 0, 5}).Cells() != 0 {
		t.Error("cells count wrong")
	}
	if !in.Within(b) || b.Within(in) {
		t.Error("Within wrong")
	}
}

func TestBounds3DExpandSidesStaysPaddedQuick(t *testing.T) {
	g := UnitGrid3D(7, 5, 6, 3)
	in := g.Interior()
	pad := Bounds3D{-g.Halo, g.NX + g.Halo, -g.Halo, g.NY + g.Halo, -g.Halo, g.NZ + g.Halo}
	f := func(e [6]uint8) bool {
		var n [6]int
		for i, v := range e {
			n[i] = int(v % 6)
		}
		b := in.ExpandSides(n[0], n[1], n[2], n[3], n[4], n[5], g)
		// Each side grows by its extent, stopped at the padding.
		h := func(i int) int { return min(n[i], g.Halo) }
		want := Bounds3D{-h(0), g.NX + h(1), -h(2), g.NY + h(3), -h(4), g.NZ + h(5)}
		return b == want && in.Within(b) && b.Within(pad)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrid3DSub(t *testing.T) {
	g := MustSub3DParent(t)
	sub, err := g.Sub(2, 6, 0, 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NX != 4 || sub.NY != 4 || sub.NZ != 4 || sub.Halo != g.Halo {
		t.Fatalf("sub shape %v", sub)
	}
	// Cell centres must coincide with the parent's.
	x, y, z := sub.CellCenter(0, 0, 0)
	px, py, pz := g.CellCenter(2, 0, 4)
	if x != px || y != py || z != pz {
		t.Errorf("sub centre (%g,%g,%g) != parent (%g,%g,%g)", x, y, z, px, py, pz)
	}
	if _, err := g.Sub(0, 9, 0, 4, 0, 4); err == nil {
		t.Error("out-of-range sub must error")
	}
}

// MustSub3DParent builds the parent grid for the Sub test.
func MustSub3DParent(t *testing.T) *Grid3D {
	t.Helper()
	g, err := NewGrid3D(8, 8, 8, 2, 0, 2, 0, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestField3DReflectHalosSides(t *testing.T) {
	g := UnitGrid3D(4, 4, 4, 2)
	f := NewField3D(g)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				f.Set(i, j, k, float64(i+10*j+100*k))
			}
		}
	}
	f.ReflectHalosSides(2, true, false, true, false, true, false)
	if f.At(-1, 2, 2) != f.At(0, 2, 2) || f.At(-2, 2, 2) != f.At(1, 2, 2) {
		t.Error("left face not mirrored")
	}
	if f.At(2, -1, 2) != f.At(2, 0, 2) || f.At(2, 2, -2) != f.At(2, 2, 1) {
		t.Error("down/back faces not mirrored")
	}
	// Edge halo (left+down) must be coherent: mirror of the mirrored side.
	if f.At(-1, -1, 2) != f.At(0, 0, 2) {
		t.Error("xy edge halo incoherent")
	}
	if f.At(-1, -1, -1) != f.At(0, 0, 0) {
		t.Error("corner halo incoherent")
	}
	if f.At(5, 2, 2) != 0 {
		t.Error("unrequested side must stay untouched")
	}
}

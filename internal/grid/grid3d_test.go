package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGrid3DValidation(t *testing.T) {
	if _, err := NewGrid3D(0, 4, 4, 1, 0, 1, 0, 1, 0, 1); err == nil {
		t.Error("zero nx must error")
	}
	if _, err := NewGrid3D(4, 4, 4, 0, 0, 1, 0, 1, 0, 1); err == nil {
		t.Error("zero halo must error")
	}
	if _, err := NewGrid3D(4, 4, 4, 1, 0, 1, 1, 1, 0, 1); err == nil {
		t.Error("empty y extent must error")
	}
	g, err := NewGrid3D(4, 5, 6, 2, 0, 1, 0, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 120 {
		t.Errorf("Cells = %d, want 120", g.Cells())
	}
	if math.Abs(g.DZ-0.5) > 1e-15 {
		t.Errorf("DZ = %v, want 0.5", g.DZ)
	}
}

func TestGrid3DIndexUnique(t *testing.T) {
	g := UnitGrid3D(4, 3, 5, 2)
	seen := map[int]bool{}
	for k := -2; k < 7; k++ {
		for j := -2; j < 5; j++ {
			for i := -2; i < 6; i++ {
				idx := g.Index(i, j, k)
				if idx < 0 || idx >= g.Len() {
					t.Fatalf("Index(%d,%d,%d) = %d outside storage", i, j, k, idx)
				}
				if seen[idx] {
					t.Fatalf("index collision at (%d,%d,%d)", i, j, k)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != g.Len() {
		t.Errorf("covered %d of %d", len(seen), g.Len())
	}
}

func TestField3DBasics(t *testing.T) {
	g := UnitGrid3D(3, 3, 3, 1)
	f := NewField3D(g)
	f.Set(1, 2, 0, 4.5)
	if f.At(1, 2, 0) != 4.5 {
		t.Error("At/Set broken")
	}
	f.Fill(2)
	if got, want := f.SumInterior(), 54.0; got != want {
		t.Errorf("SumInterior = %v, want %v", got, want)
	}
	if got, want := f.MeanInterior(), 2.0; got != want {
		t.Errorf("MeanInterior = %v, want %v", got, want)
	}
	c := f.Clone()
	c.Set(0, 0, 0, 9)
	if f.At(0, 0, 0) != 2 {
		t.Error("Clone aliases")
	}
	if c.MaxDiff(f) != 7 {
		t.Errorf("MaxDiff = %v, want 7", c.MaxDiff(f))
	}
}

func TestField3DReflectHalos(t *testing.T) {
	g := UnitGrid3D(4, 4, 4, 2)
	f := NewField3D(g)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				f.Set(i, j, k, float64(i+10*j+100*k))
			}
		}
	}
	f.ReflectHalos(2)
	for d := 1; d <= 2; d++ {
		if got, want := f.At(-d, 1, 1), f.At(d-1, 1, 1); got != want {
			t.Errorf("x- depth %d: %v != %v", d, got, want)
		}
		if got, want := f.At(1, 3+d, 1), f.At(1, 4-d, 1); got != want {
			t.Errorf("y+ depth %d: %v != %v", d, got, want)
		}
		if got, want := f.At(1, 1, -d), f.At(1, 1, d-1); got != want {
			t.Errorf("z- depth %d: %v != %v", d, got, want)
		}
	}
	// Constant field invariant.
	f.Fill(0)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				f.Set(i, j, k, 1.5)
			}
		}
	}
	f.ReflectHalos(2)
	for k := -2; k < 6; k++ {
		for j := -2; j < 6; j++ {
			for i := -2; i < 6; i++ {
				if f.At(i, j, k) != 1.5 {
					t.Fatalf("constant not preserved at (%d,%d,%d): %v", i, j, k, f.At(i, j, k))
				}
			}
		}
	}
}

func TestGrid3DCellCenter(t *testing.T) {
	g, err := NewGrid3D(2, 2, 2, 1, 0, 2, 0, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := g.CellCenter(0, 1, 1)
	if x != 0.5 || y != 1.5 || z != 1.5 {
		t.Errorf("CellCenter = (%v,%v,%v)", x, y, z)
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

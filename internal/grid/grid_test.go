package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewGrid2DValidation(t *testing.T) {
	cases := []struct {
		name                   string
		nx, ny, halo           int
		xmin, xmax, ymin, ymax float64
		ok                     bool
	}{
		{"valid", 8, 8, 2, 0, 1, 0, 1, true},
		{"zero nx", 0, 8, 2, 0, 1, 0, 1, false},
		{"negative ny", 8, -1, 2, 0, 1, 0, 1, false},
		{"zero halo", 8, 8, 0, 0, 1, 0, 1, false},
		{"halo too deep", 8, 8, MaxHalo + 1, 0, 1, 0, 1, false},
		{"empty x extent", 8, 8, 2, 1, 1, 0, 1, false},
		{"inverted y extent", 8, 8, 2, 0, 1, 2, 1, false},
		{"rectangular", 16, 4, 1, -2, 2, 0, 0.5, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := NewGrid2D(c.nx, c.ny, c.halo, c.xmin, c.xmax, c.ymin, c.ymax)
			if c.ok && (err != nil || g == nil) {
				t.Fatalf("expected success, got err=%v", err)
			}
			if !c.ok && err == nil {
				t.Fatalf("expected error, got grid %v", g)
			}
		})
	}
}

func TestGrid2DSpacing(t *testing.T) {
	g := MustGrid2D(10, 20, 2, 0, 5, -1, 1)
	if got, want := g.DX, 0.5; got != want {
		t.Errorf("DX = %v, want %v", got, want)
	}
	if got, want := g.DY, 0.1; got != want {
		t.Errorf("DY = %v, want %v", got, want)
	}
	if got, want := g.CellCenterX(0), 0.25; math.Abs(got-want) > 1e-15 {
		t.Errorf("CellCenterX(0) = %v, want %v", got, want)
	}
	if got, want := g.CellCenterY(19), 0.95; math.Abs(got-want) > 1e-12 {
		t.Errorf("CellCenterY(19) = %v, want %v", got, want)
	}
	if got, want := g.VertexX(10), 5.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("VertexX(10) = %v, want %v", got, want)
	}
	if got, want := g.CellArea(), 0.05; math.Abs(got-want) > 1e-15 {
		t.Errorf("CellArea = %v, want %v", got, want)
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g := MustGrid2D(7, 5, 3, 0, 1, 0, 1)
	seen := map[int]bool{}
	for k := -g.Halo; k < g.NY+g.Halo; k++ {
		for j := -g.Halo; j < g.NX+g.Halo; j++ {
			idx := g.Index(j, k)
			if idx < 0 || idx >= g.Len() {
				t.Fatalf("Index(%d,%d) = %d outside [0,%d)", j, k, idx, g.Len())
			}
			if seen[idx] {
				t.Fatalf("Index(%d,%d) = %d collides", j, k, idx)
			}
			seen[idx] = true
			jj, kk := g.Coords(idx)
			if jj != j || kk != k {
				t.Fatalf("Coords(Index(%d,%d)) = (%d,%d)", j, k, jj, kk)
			}
		}
	}
	if len(seen) != g.Len() {
		t.Fatalf("covered %d of %d padded cells", len(seen), g.Len())
	}
}

func TestIndexRoundTripQuick(t *testing.T) {
	g := MustGrid2D(33, 17, 4, 0, 1, 0, 1)
	f := func(ju, ku uint) bool {
		j := int(ju%uint(g.NX+2*g.Halo)) - g.Halo
		k := int(ku%uint(g.NY+2*g.Halo)) - g.Halo
		jj, kk := g.Coords(g.Index(j, k))
		return jj == j && kk == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInInteriorInPadded(t *testing.T) {
	g := MustGrid2D(4, 4, 2, 0, 1, 0, 1)
	if !g.InInterior(0, 0) || !g.InInterior(3, 3) {
		t.Error("interior corners must be interior")
	}
	if g.InInterior(-1, 0) || g.InInterior(0, 4) {
		t.Error("halo cells must not be interior")
	}
	if !g.InPadded(-2, -2) || !g.InPadded(5, 5) {
		t.Error("padded corners must be addressable")
	}
	if g.InPadded(-3, 0) || g.InPadded(0, 6) {
		t.Error("outside padding must not be addressable")
	}
}

func TestSubGridAlignment(t *testing.T) {
	g := MustGrid2D(16, 16, 2, 0, 4, 0, 4)
	s, err := g.Sub(4, 12, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.NX != 8 || s.NY != 8 {
		t.Fatalf("sub dims = %dx%d, want 8x8", s.NX, s.NY)
	}
	// Cell centres must coincide: sub cell (0,0) is parent cell (4,8).
	if math.Abs(s.CellCenterX(0)-g.CellCenterX(4)) > 1e-15 {
		t.Errorf("x centres misaligned: %v vs %v", s.CellCenterX(0), g.CellCenterX(4))
	}
	if math.Abs(s.CellCenterY(0)-g.CellCenterY(8)) > 1e-15 {
		t.Errorf("y centres misaligned: %v vs %v", s.CellCenterY(0), g.CellCenterY(8))
	}
	if math.Abs(s.DX-g.DX) > 1e-15 || math.Abs(s.DY-g.DY) > 1e-15 {
		t.Error("sub-grid spacing must match parent")
	}
	if _, err := g.Sub(0, 0, 0, 4); err == nil {
		t.Error("empty sub-extent must error")
	}
	if _, err := g.Sub(0, 17, 0, 4); err == nil {
		t.Error("overflowing sub-extent must error")
	}
}

func TestBoundsOps(t *testing.T) {
	g := MustGrid2D(8, 8, 3, 0, 1, 0, 1)
	in := g.Interior()
	if in.Cells() != 64 {
		t.Fatalf("interior cells = %d", in.Cells())
	}
	e := in.Expand(2, g)
	if e != (Bounds{-2, 10, -2, 10}) {
		t.Fatalf("Expand(2) = %v", e)
	}
	e = in.Expand(5, g) // clamped at halo=3
	if e != (Bounds{-3, 11, -3, 11}) {
		t.Fatalf("Expand(5) clamped = %v", e)
	}
	if !(Bounds{2, 2, 0, 5}).Empty() {
		t.Error("degenerate bounds must be empty")
	}
	if (Bounds{2, 2, 0, 5}).Cells() != 0 {
		t.Error("empty bounds have zero cells")
	}
	if !in.Contains(0, 0) || in.Contains(8, 0) || in.Contains(0, -1) {
		t.Error("Contains wrong")
	}
	if !in.Within(e.Expand(1, g)) {
		t.Error("interior must be within expanded bounds")
	}
}

func TestBoundsExpandSides(t *testing.T) {
	g := MustGrid2D(8, 8, 4, 0, 1, 0, 1)
	in := g.Interior()
	// A rank with neighbours on right and up only: left/down sides are at
	// the physical boundary and are not expanded.
	if b := in.ExpandSides(0, 3, 0, 3, g); b != (Bounds{0, 11, 0, 11}) {
		t.Fatalf("ExpandSides = %v", b)
	}
	// Growth past the padded region stops at it.
	if b := in.ExpandSides(5, 0, 0, 9, g); b != (Bounds{-4, 8, 0, 12}) {
		t.Fatalf("ExpandSides past the padding = %v", b)
	}
}

func TestBoundsExpandSidesStaysPaddedQuick(t *testing.T) {
	g := MustGrid2D(12, 9, 4, 0, 1, 0, 1)
	in := g.Interior()
	pad := Bounds{-g.Halo, g.NX + g.Halo, -g.Halo, g.NY + g.Halo}
	f := func(l, r, d, u uint8) bool {
		b := in.ExpandSides(int(l%7), int(r%7), int(d%7), int(u%7), g)
		// Each side grows by its extent, stopped at the padding.
		want := Bounds{-min(int(l%7), g.Halo), g.NX + min(int(r%7), g.Halo), -min(int(d%7), g.Halo), g.NY + min(int(u%7), g.Halo)}
		return b == want && in.Within(b) && b.Within(pad)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSideOpposite(t *testing.T) {
	for s := Left; s < NumSides; s++ {
		if s.Opposite().Opposite() != s {
			t.Errorf("Opposite not an involution for %v", s)
		}
		if s.Opposite() == s {
			t.Errorf("Opposite(%v) == itself", s)
		}
	}
	if Left.String() != "left" || Up.String() != "up" {
		t.Error("side names wrong")
	}
}

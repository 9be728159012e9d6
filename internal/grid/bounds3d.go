package grid

import "fmt"

// Bounds3D is a half-open index box [X0,X1) × [Y0,Y1) × [Z0,Z1) over 3D
// cell coordinates — the unit of iteration for the 3D kernels, exactly as
// Bounds is for the 2D ones. The interior is {0,NX,0,NY,0,NZ}, and the 3D
// matrix-powers kernel runs on expanded boxes that shrink between halo
// exchanges.
type Bounds3D struct {
	X0, X1, Y0, Y1, Z0, Z1 int
}

// Interior returns the interior bounds of g.
func (g *Grid3D) Interior() Bounds3D { return Bounds3D{0, g.NX, 0, g.NY, 0, g.NZ} }

// Expand grows b by d cells on every side, clamped to the padded region
// of g — the 3D twin of Bounds.Expand.
func (b Bounds3D) Expand(d int, g *Grid3D) Bounds3D {
	e := Bounds3D{b.X0 - d, b.X1 + d, b.Y0 - d, b.Y1 + d, b.Z0 - d, b.Z1 + d}
	return e.ClampPadded(g)
}

// ClampInterior clamps b to the interior region of g — the 3D twin of
// Bounds.ClampInterior.
func (b Bounds3D) ClampInterior(g *Grid3D) Bounds3D {
	return Bounds3D{
		X0: max(b.X0, 0), X1: min(b.X1, g.NX),
		Y0: max(b.Y0, 0), Y1: min(b.Y1, g.NY),
		Z0: max(b.Z0, 0), Z1: min(b.Z1, g.NZ),
	}
}

// ExpandSides grows b by the given per-side amounts, clamped to the padded
// region of g. Sides on the physical domain boundary must not be expanded,
// which is what the per-side form is for.
func (b Bounds3D) ExpandSides(left, right, down, up, back, front int, g *Grid3D) Bounds3D {
	e := Bounds3D{b.X0 - left, b.X1 + right, b.Y0 - down, b.Y1 + up, b.Z0 - back, b.Z1 + front}
	return e.ClampPadded(g)
}

// ClampPadded clamps b to the padded (addressable) region of g.
func (b Bounds3D) ClampPadded(g *Grid3D) Bounds3D {
	return Bounds3D{
		X0: max(b.X0, -g.Halo), X1: min(b.X1, g.NX+g.Halo),
		Y0: max(b.Y0, -g.Halo), Y1: min(b.Y1, g.NY+g.Halo),
		Z0: max(b.Z0, -g.Halo), Z1: min(b.Z1, g.NZ+g.Halo),
	}
}

// Empty reports whether b contains no cells.
func (b Bounds3D) Empty() bool { return b.X0 >= b.X1 || b.Y0 >= b.Y1 || b.Z0 >= b.Z1 }

// Cells returns the number of cells in b (0 if empty).
func (b Bounds3D) Cells() int {
	if b.Empty() {
		return 0
	}
	return (b.X1 - b.X0) * (b.Y1 - b.Y0) * (b.Z1 - b.Z0)
}

// Contains reports whether (i,j,k) lies inside b.
func (b Bounds3D) Contains(i, j, k int) bool {
	return i >= b.X0 && i < b.X1 && j >= b.Y0 && j < b.Y1 && k >= b.Z0 && k < b.Z1
}

// Within reports whether b lies entirely inside outer.
func (b Bounds3D) Within(outer Bounds3D) bool {
	if b.Empty() {
		return true
	}
	return b.X0 >= outer.X0 && b.X1 <= outer.X1 &&
		b.Y0 >= outer.Y0 && b.Y1 <= outer.Y1 &&
		b.Z0 >= outer.Z0 && b.Z1 <= outer.Z1
}

func (b Bounds3D) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)", b.X0, b.X1, b.Y0, b.Y1, b.Z0, b.Z1)
}

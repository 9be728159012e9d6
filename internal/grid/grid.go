// Package grid provides the structured, cell-centred grids that TeaLeaf
// solves on: 2D and 3D rectangular meshes with halo padding, scalar fields
// stored in flat, stride-indexed arrays, and rectangular domain partitions
// used by the distributed solvers.
//
// Temperatures (and every other solver vector) live at cell centres.
// Every field is padded with a fixed halo depth on all sides so that the
// matrix-free stencil operators and the deep-halo matrix-powers kernel can
// read neighbour data without bounds checks. Interior cell (0,0) is the
// bottom-left cell; halo cells carry negative indices down to -Halo.
//
// Field storage comes from one of two allocators. An instance (one rank)
// carves every field it holds from one Arena: a single allocation sized
// at set-up, each field in its own slot at a staggered offset, so that
// equal indices of different fields do not share cache sets; on Linux an
// arena of 4 MiB or more starts on a 2 MiB boundary and is advised onto
// transparent huge pages once. A field made outside an instance —
// NewField2D, NewField3D, Clone — is allocated on its own: on Linux one
// of 4 MiB or more is advised onto huge pages at a staggered start of its
// own, smaller fields and other platforms take a plain make. Either way
// a field is zeroed, GC-managed and has len == cap.
//
// Both grids describe their fields' storage with one Layout: extents,
// halos, strides and origin along three axes, a 2D grid being the nz = 1
// case with no z halo and z stride 0. The zero-flux halo reflection, the
// comm package's halo exchange and gathers, and the deflation projector
// are each written once over it.
package grid

import (
	"errors"
	"fmt"
)

// MaxHalo is the deepest halo the library supports. The paper's
// matrix-powers kernel uses depths up to 16 on GPUs, so the cap is set
// slightly above that.
const MaxHalo = 20

// Grid2D describes a rectangular, cell-centred 2D grid with uniform
// spacing and a fixed halo depth on every side.
type Grid2D struct {
	// NX, NY are the interior cell counts in x and y.
	NX, NY int
	// Halo is the halo depth in cells on every side.
	Halo int
	// Physical extents of the interior region.
	XMin, XMax, YMin, YMax float64
	// DX, DY are the uniform cell widths.
	DX, DY float64

	lay Layout // storage: row stride NX + 2*Halo, one plane
}

// NewGrid2D constructs a grid with nx × ny interior cells, halo-padded by
// halo cells per side, spanning [xmin,xmax] × [ymin,ymax].
func NewGrid2D(nx, ny, halo int, xmin, xmax, ymin, ymax float64) (*Grid2D, error) {
	switch {
	case nx <= 0 || ny <= 0:
		return nil, fmt.Errorf("grid: cell counts must be positive, got %d x %d", nx, ny)
	case halo < 1 || halo > MaxHalo:
		return nil, fmt.Errorf("grid: halo depth %d outside [1,%d]", halo, MaxHalo)
	case xmax <= xmin || ymax <= ymin:
		return nil, errors.New("grid: physical extents must be non-empty")
	}
	g := &Grid2D{
		NX: nx, NY: ny, Halo: halo,
		XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax,
		DX: (xmax - xmin) / float64(nx),
		DY: (ymax - ymin) / float64(ny),
	}
	g.lay = layout(nx, ny, 1, halo, 0)
	return g, nil
}

// MustGrid2D is NewGrid2D that panics on error; for tests and examples.
func MustGrid2D(nx, ny, halo int, xmin, xmax, ymin, ymax float64) *Grid2D {
	g, err := NewGrid2D(nx, ny, halo, xmin, xmax, ymin, ymax)
	if err != nil {
		panic(err)
	}
	return g
}

// UnitGrid2D builds an nx × ny grid over the unit square with the given halo.
func UnitGrid2D(nx, ny, halo int) *Grid2D {
	return MustGrid2D(nx, ny, halo, 0, 1, 0, 1)
}

// Stride returns the padded row stride.
func (g *Grid2D) Stride() int { return g.lay.St[1] }

// Len returns the padded storage length for one field.
func (g *Grid2D) Len() int { return (g.NX + 2*g.Halo) * (g.NY + 2*g.Halo) }

// Index maps cell coordinates (j,k), with j ∈ [-Halo, NX+Halo) and
// k ∈ [-Halo, NY+Halo), to a flat storage index.
func (g *Grid2D) Index(j, k int) int { return g.lay.Org + k*g.lay.St[1] + j }

// Coords is the inverse of Index.
func (g *Grid2D) Coords(idx int) (j, k int) {
	// Work in padded coordinates, which are non-negative.
	return idx%g.lay.St[1] - g.Halo, idx/g.lay.St[1] - g.Halo
}

// InInterior reports whether (j,k) is an interior (non-halo) cell.
func (g *Grid2D) InInterior(j, k int) bool {
	return j >= 0 && j < g.NX && k >= 0 && k < g.NY
}

// InPadded reports whether (j,k) is addressable (interior or halo).
func (g *Grid2D) InPadded(j, k int) bool {
	return j >= -g.Halo && j < g.NX+g.Halo && k >= -g.Halo && k < g.NY+g.Halo
}

// CellCenterX returns the x coordinate of the centre of column j.
func (g *Grid2D) CellCenterX(j int) float64 {
	return g.XMin + (float64(j)+0.5)*g.DX
}

// CellCenterY returns the y coordinate of the centre of row k.
func (g *Grid2D) CellCenterY(k int) float64 {
	return g.YMin + (float64(k)+0.5)*g.DY
}

// VertexX returns the x coordinate of the left face of column j.
func (g *Grid2D) VertexX(j int) float64 { return g.XMin + float64(j)*g.DX }

// VertexY returns the y coordinate of the bottom face of row k.
func (g *Grid2D) VertexY(k int) float64 { return g.YMin + float64(k)*g.DY }

// CellArea returns the area of one cell.
func (g *Grid2D) CellArea() float64 { return g.DX * g.DY }

// Cells returns the number of interior cells.
func (g *Grid2D) Cells() int { return g.NX * g.NY }

func (g *Grid2D) String() string {
	return fmt.Sprintf("Grid2D(%dx%d, halo=%d, [%g,%g]x[%g,%g])",
		g.NX, g.NY, g.Halo, g.XMin, g.XMax, g.YMin, g.YMax)
}

// Sub returns the geometry of the rectangular sub-grid covering interior
// cells [x0,x1) × [y0,y1) of g, with the same halo depth and cell widths.
// The sub-grid's physical extents are positioned so that its cell centres
// coincide with the parent's: this is the per-rank grid used by the
// distributed solvers.
func (g *Grid2D) Sub(x0, x1, y0, y1 int) (*Grid2D, error) {
	if x0 < 0 || y0 < 0 || x1 > g.NX || y1 > g.NY || x0 >= x1 || y0 >= y1 {
		return nil, fmt.Errorf("grid: sub-extent [%d,%d)x[%d,%d) outside %dx%d",
			x0, x1, y0, y1, g.NX, g.NY)
	}
	return NewGrid2D(x1-x0, y1-y0, g.Halo,
		g.VertexX(x0), g.VertexX(x1), g.VertexY(y0), g.VertexY(y1))
}

// Bounds is a half-open index rectangle [X0,X1) × [Y0,Y1) over cell
// coordinates. It is the unit of iteration for all kernels: the interior is
// Bounds{0, NX, 0, NY}, and the matrix-powers kernel runs kernels on
// expanded bounds that shrink step by step between halo exchanges.
type Bounds struct {
	X0, X1, Y0, Y1 int
}

// Interior returns the interior bounds of g.
func (g *Grid2D) Interior() Bounds { return Bounds{0, g.NX, 0, g.NY} }

// Expand grows b by d cells on every side, clamped to the padded region of g.
func (b Bounds) Expand(d int, g *Grid2D) Bounds {
	e := Bounds{b.X0 - d, b.X1 + d, b.Y0 - d, b.Y1 + d}
	return e.ClampPadded(g)
}

// ExpandSides grows b by the given per-side amounts (clamped to padding).
// Sides that touch the physical domain boundary must not be expanded, which
// is what the per-side form is for.
func (b Bounds) ExpandSides(left, right, down, up int, g *Grid2D) Bounds {
	e := Bounds{b.X0 - left, b.X1 + right, b.Y0 - down, b.Y1 + up}
	return e.ClampPadded(g)
}

// ClampPadded clamps b to the padded (addressable) region of g.
func (b Bounds) ClampPadded(g *Grid2D) Bounds {
	return Bounds{
		X0: max(b.X0, -g.Halo), X1: min(b.X1, g.NX+g.Halo),
		Y0: max(b.Y0, -g.Halo), Y1: min(b.Y1, g.NY+g.Halo),
	}
}

// ClampInterior clamps b to the interior region of g.
func (b Bounds) ClampInterior(g *Grid2D) Bounds {
	return Bounds{
		X0: max(b.X0, 0), X1: min(b.X1, g.NX),
		Y0: max(b.Y0, 0), Y1: min(b.Y1, g.NY),
	}
}

// Empty reports whether b contains no cells.
func (b Bounds) Empty() bool { return b.X0 >= b.X1 || b.Y0 >= b.Y1 }

// Cells returns the number of cells in b (0 if empty).
func (b Bounds) Cells() int {
	if b.Empty() {
		return 0
	}
	return (b.X1 - b.X0) * (b.Y1 - b.Y0)
}

// Contains reports whether (j,k) lies inside b.
func (b Bounds) Contains(j, k int) bool {
	return j >= b.X0 && j < b.X1 && k >= b.Y0 && k < b.Y1
}

// Within reports whether b lies entirely inside outer.
func (b Bounds) Within(outer Bounds) bool {
	if b.Empty() {
		return true
	}
	return b.X0 >= outer.X0 && b.X1 <= outer.X1 && b.Y0 >= outer.Y0 && b.Y1 <= outer.Y1
}

// Eq reports bounds equality.
func (b Bounds) Eq(o Bounds) bool { return b == o }

func (b Bounds) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", b.X0, b.X1, b.Y0, b.Y1)
}

package grid

import (
	"fmt"
	"math"
)

// Grid3D describes a rectangular, cell-centred 3D grid with uniform
// spacing and a fixed halo depth on every side. It backs the 7-point
// stencil version of TeaLeaf; the paper focuses on 2D but notes that the
// 3D implementation and results are analogous.
type Grid3D struct {
	NX, NY, NZ             int
	Halo                   int
	XMin, XMax             float64
	YMin, YMax             float64
	ZMin, ZMax             float64
	DX, DY, DZ             float64
	strideY, strideZ, orig int
}

// NewGrid3D constructs a 3D grid with the given interior cell counts,
// halo depth, and physical extents.
func NewGrid3D(nx, ny, nz, halo int, xmin, xmax, ymin, ymax, zmin, zmax float64) (*Grid3D, error) {
	switch {
	case nx <= 0 || ny <= 0 || nz <= 0:
		return nil, fmt.Errorf("grid: cell counts must be positive, got %dx%dx%d", nx, ny, nz)
	case halo < 1 || halo > MaxHalo:
		return nil, fmt.Errorf("grid: halo depth %d outside [1,%d]", halo, MaxHalo)
	case xmax <= xmin || ymax <= ymin || zmax <= zmin:
		return nil, fmt.Errorf("grid: physical extents must be non-empty")
	}
	g := &Grid3D{
		NX: nx, NY: ny, NZ: nz, Halo: halo,
		XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax, ZMin: zmin, ZMax: zmax,
		DX: (xmax - xmin) / float64(nx),
		DY: (ymax - ymin) / float64(ny),
		DZ: (zmax - zmin) / float64(nz),
	}
	g.strideY = nx + 2*halo
	g.strideZ = g.strideY * (ny + 2*halo)
	g.orig = halo*g.strideZ + halo*g.strideY + halo
	return g, nil
}

// UnitGrid3D builds an n³ grid over the unit cube.
func UnitGrid3D(nx, ny, nz, halo int) *Grid3D {
	g, err := NewGrid3D(nx, ny, nz, halo, 0, 1, 0, 1, 0, 1)
	if err != nil {
		panic(err)
	}
	return g
}

// Len returns the padded storage length for one field.
func (g *Grid3D) Len() int {
	return (g.NX + 2*g.Halo) * (g.NY + 2*g.Halo) * (g.NZ + 2*g.Halo)
}

// Index maps cell coordinates (i,j,k) to a flat storage index; halo cells
// have negative coordinates.
func (g *Grid3D) Index(i, j, k int) int {
	return g.orig + k*g.strideZ + j*g.strideY + i
}

// Cells returns the number of interior cells.
func (g *Grid3D) Cells() int { return g.NX * g.NY * g.NZ }

// InInterior reports whether (i,j,k) is an interior cell.
func (g *Grid3D) InInterior(i, j, k int) bool {
	return i >= 0 && i < g.NX && j >= 0 && j < g.NY && k >= 0 && k < g.NZ
}

// CellCenter returns the physical centre of cell (i,j,k).
func (g *Grid3D) CellCenter(i, j, k int) (x, y, z float64) {
	return g.XMin + (float64(i)+0.5)*g.DX,
		g.YMin + (float64(j)+0.5)*g.DY,
		g.ZMin + (float64(k)+0.5)*g.DZ
}

// VertexX returns the x coordinate of the low face of column i.
func (g *Grid3D) VertexX(i int) float64 { return g.XMin + float64(i)*g.DX }

// VertexY returns the y coordinate of the low face of row j.
func (g *Grid3D) VertexY(j int) float64 { return g.YMin + float64(j)*g.DY }

// VertexZ returns the z coordinate of the low face of plane k.
func (g *Grid3D) VertexZ(k int) float64 { return g.ZMin + float64(k)*g.DZ }

// CellVolume returns the volume of one cell.
func (g *Grid3D) CellVolume() float64 { return g.DX * g.DY * g.DZ }

// Sub returns the geometry of the box sub-grid covering interior cells
// [x0,x1) × [y0,y1) × [z0,z1) of g, with the same halo depth and cell
// widths. The sub-grid carries true physical coordinates so its cell
// centres coincide with the parent's — the per-rank grid of the
// distributed 3D solvers.
func (g *Grid3D) Sub(x0, x1, y0, y1, z0, z1 int) (*Grid3D, error) {
	if x0 < 0 || y0 < 0 || z0 < 0 || x1 > g.NX || y1 > g.NY || z1 > g.NZ ||
		x0 >= x1 || y0 >= y1 || z0 >= z1 {
		return nil, fmt.Errorf("grid: 3D sub-extent [%d,%d)x[%d,%d)x[%d,%d) outside %dx%dx%d",
			x0, x1, y0, y1, z0, z1, g.NX, g.NY, g.NZ)
	}
	return NewGrid3D(x1-x0, y1-y0, z1-z0, g.Halo,
		g.VertexX(x0), g.VertexX(x1), g.VertexY(y0), g.VertexY(y1), g.VertexZ(z0), g.VertexZ(z1))
}

func (g *Grid3D) String() string {
	return fmt.Sprintf("Grid3D(%dx%dx%d, halo=%d)", g.NX, g.NY, g.NZ, g.Halo)
}

// Field3D is a halo-padded scalar field on a Grid3D.
type Field3D struct {
	Grid *Grid3D
	Data []float64
}

// NewField3D allocates a zeroed field on g.
func NewField3D(g *Grid3D) *Field3D {
	return &Field3D{Grid: g, Data: make([]float64, g.Len())}
}

// DataOrNil returns f's storage, nil for a nil field (see
// Field2D.DataOrNil).
func (f *Field3D) DataOrNil() []float64 {
	if f == nil {
		return nil
	}
	return f.Data
}

// At returns the value at (i,j,k).
func (f *Field3D) At(i, j, k int) float64 { return f.Data[f.Grid.Index(i, j, k)] }

// Set stores v at (i,j,k).
func (f *Field3D) Set(i, j, k int, v float64) { f.Data[f.Grid.Index(i, j, k)] = v }

// Fill sets every entry (halos included) to v.
func (f *Field3D) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// CopyFrom copies src's data into f (identical grid shapes required).
func (f *Field3D) CopyFrom(src *Field3D) {
	if len(f.Data) != len(src.Data) {
		panic(fmt.Sprintf("grid: 3D CopyFrom shape mismatch: %d vs %d", len(f.Data), len(src.Data)))
	}
	copy(f.Data, src.Data)
}

// Clone returns a deep copy.
func (f *Field3D) Clone() *Field3D {
	c := NewField3D(f.Grid)
	copy(c.Data, f.Data)
	return c
}

// SumInterior returns the sum over interior cells.
func (f *Field3D) SumInterior() float64 {
	g := f.Grid
	var s float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			base := g.Index(0, j, k)
			for i := 0; i < g.NX; i++ {
				s += f.Data[base+i]
			}
		}
	}
	return s
}

// SumBounds returns the sum of the field over b.
func (f *Field3D) SumBounds(b Bounds3D) float64 {
	g := f.Grid
	var s float64
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			base := g.Index(0, j, k)
			for i := b.X0; i < b.X1; i++ {
				s += f.Data[base+i]
			}
		}
	}
	return s
}

// MeanInterior returns the mean over interior cells.
func (f *Field3D) MeanInterior() float64 { return f.SumInterior() / float64(f.Grid.Cells()) }

// MaxDiff returns the max absolute interior difference against o.
func (f *Field3D) MaxDiff(o *Field3D) float64 {
	g := f.Grid
	var m float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				d := math.Abs(f.At(i, j, k) - o.At(i, j, k))
				if d > m {
					m = d
				}
			}
		}
	}
	return m
}

// Row returns the slice of storage covering cells [x0,x1) of row (j,k).
// The slice aliases the field's data.
func (f *Field3D) Row(j, k, x0, x1 int) []float64 {
	base := f.Grid.Index(x0, j, k)
	return f.Data[base : base+(x1-x0)]
}

// ReflectHalos fills halo cells by mirroring interior cells on all six
// faces (zero-flux boundary), edges and corners included.
func (f *Field3D) ReflectHalos(depth int) {
	f.ReflectHalosSides(depth, true, true, true, true, true, true)
}

// ReflectHalosSides mirrors only the requested sides (used on ranks whose
// sub-domain touches the physical boundary on some sides only). The fill
// order — x faces over interior rows, then y faces spanning the x halos,
// then z faces spanning both — matches the three-phase exchange, so edge
// and corner halo cells are coherent for deep stencils. The y and z
// faces are whole-row copies; within a face the cells go in the order
// they always did (which matters only on grids thinner than the depth,
// where a mirror reads a halo cell written a step before).
func (f *Field3D) ReflectHalosSides(depth int, left, right, down, up, back, front bool) {
	g, data := f.Grid, f.Data
	depth = min(depth, g.Halo)
	w := g.NX + 2*depth
	row := func(j, k int) []float64 { o := g.Index(-depth, j, k); return data[o : o+w] }
	// X faces.
	if left || right {
		for k := -depth; k < g.NZ+depth; k++ {
			for j := -depth; j < g.NY+depth; j++ {
				o := g.Index(0, j, k)
				for d := 1; d <= depth; d++ {
					if left {
						data[o-d] = data[o+d-1]
					}
					if right {
						data[o+g.NX-1+d] = data[o+g.NX-d]
					}
				}
			}
		}
	}
	// Y faces (spanning x halos).
	if down || up {
		for k := -depth; k < g.NZ+depth; k++ {
			for d := 1; d <= depth; d++ {
				if down {
					copy(row(-d, k), row(d-1, k))
				}
				if up {
					copy(row(g.NY-1+d, k), row(g.NY-d, k))
				}
			}
		}
	}
	// Z faces (spanning x and y halos).
	if back || front {
		for d := 1; d <= depth; d++ {
			for j := -depth; j < g.NY+depth; j++ {
				if back {
					copy(row(j, -d), row(j, d-1))
				}
				if front {
					copy(row(j, g.NZ-1+d), row(j, g.NZ-d))
				}
			}
		}
	}
}

package grid

import (
	"fmt"
	"math"
)

// Field2D is a halo-padded, cell-centred scalar field on a Grid2D.
// Data is laid out row-major with the grid's padded stride; use the grid's
// Index to address cells, or At/Set for convenience (bounds unchecked in
// the hot accessors, as all kernels iterate Bounds that were validated
// once).
type Field2D struct {
	Grid *Grid2D
	Data []float64
}

// NewField2D allocates a zeroed field on g, on storage of its own (see
// newData for where it starts); an instance's fields come from its Arena
// instead.
func NewField2D(g *Grid2D) *Field2D {
	return &Field2D{Grid: g, Data: newData(g.Len())}
}

// DataOrNil returns f's storage, nil for a nil field: the form the
// kernels take an optional operand in (a nil minv is the identity).
func (f *Field2D) DataOrNil() []float64 {
	if f == nil {
		return nil
	}
	return f.Data
}

// At returns the value at cell (j,k). j,k may address halo cells.
func (f *Field2D) At(j, k int) float64 { return f.Data[f.Grid.Index(j, k)] }

// Set stores v at cell (j,k).
func (f *Field2D) Set(j, k int, v float64) { f.Data[f.Grid.Index(j, k)] = v }

// Add accumulates v into cell (j,k).
func (f *Field2D) Add(j, k int, v float64) { f.Data[f.Grid.Index(j, k)] += v }

// Fill sets every entry (including halos) to v.
func (f *Field2D) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// FillBounds sets every cell inside b to v.
func (f *Field2D) FillBounds(b Bounds, v float64) {
	g := f.Grid
	for k := b.Y0; k < b.Y1; k++ {
		base := g.Index(0, k)
		for j := b.X0; j < b.X1; j++ {
			f.Data[base+j] = v
		}
	}
}

// Zero clears the field, halos included.
func (f *Field2D) Zero() { f.Fill(0) }

// Clone returns a deep copy of f on the same grid.
func (f *Field2D) Clone() *Field2D {
	c := NewField2D(f.Grid)
	copy(c.Data, f.Data)
	return c
}

// CopyFrom copies src's data into f. The grids must have identical shape.
func (f *Field2D) CopyFrom(src *Field2D) {
	if len(f.Data) != len(src.Data) {
		panic(fmt.Sprintf("grid: CopyFrom shape mismatch: %d vs %d", len(f.Data), len(src.Data)))
	}
	copy(f.Data, src.Data)
}

// Row returns the slice of storage covering cells [x0,x1) of row k.
// The slice aliases the field's data.
func (f *Field2D) Row(k, x0, x1 int) []float64 {
	g := f.Grid
	base := g.Index(x0, k)
	return f.Data[base : base+(x1-x0)]
}

// SumBounds returns the sum of the field over b.
func (f *Field2D) SumBounds(b Bounds) float64 {
	var s float64
	g := f.Grid
	for k := b.Y0; k < b.Y1; k++ {
		base := g.Index(0, k)
		for j := b.X0; j < b.X1; j++ {
			s += f.Data[base+j]
		}
	}
	return s
}

// SumInterior returns the sum of the field over the interior cells.
func (f *Field2D) SumInterior() float64 { return f.SumBounds(f.Grid.Interior()) }

// MeanInterior returns the arithmetic mean over interior cells.
func (f *Field2D) MeanInterior() float64 {
	return f.SumInterior() / float64(f.Grid.Cells())
}

// MinMaxInterior returns the extrema over interior cells.
func (f *Field2D) MinMaxInterior() (lo, hi float64) {
	b := f.Grid.Interior()
	lo, hi = math.Inf(1), math.Inf(-1)
	g := f.Grid
	for k := b.Y0; k < b.Y1; k++ {
		base := g.Index(0, k)
		for j := b.X0; j < b.X1; j++ {
			v := f.Data[base+j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// Norm2Interior returns the Euclidean norm over interior cells.
func (f *Field2D) Norm2Interior() float64 {
	var s float64
	b := f.Grid.Interior()
	g := f.Grid
	for k := b.Y0; k < b.Y1; k++ {
		base := g.Index(0, k)
		for j := b.X0; j < b.X1; j++ {
			v := f.Data[base+j]
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// ApproxEqual reports whether the interiors of f and o agree to within tol
// in max-norm. Grids must have identical interior shape.
func (f *Field2D) ApproxEqual(o *Field2D, tol float64) bool {
	if f.Grid.NX != o.Grid.NX || f.Grid.NY != o.Grid.NY {
		return false
	}
	b := f.Grid.Interior()
	for k := b.Y0; k < b.Y1; k++ {
		for j := b.X0; j < b.X1; j++ {
			if math.Abs(f.At(j, k)-o.At(j, k)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxDiff returns the maximum absolute interior difference between f and o.
func (f *Field2D) MaxDiff(o *Field2D) float64 {
	b := f.Grid.Interior()
	var m float64
	for k := b.Y0; k < b.Y1; k++ {
		for j := b.X0; j < b.X1; j++ {
			d := math.Abs(f.At(j, k) - o.At(j, k))
			if d > m {
				m = d
			}
		}
	}
	return m
}

package grid

// Rows is the row walker the pointwise kernels are written once over: a
// box of a field's cells as the rows it is stored in, plus the offsets
// of that field's layout. Row (j, k) holds the cells [X0, X1); k is the
// outer index, the axis a pool splits a sweep along, and j runs the rows
// of one k. A 2D box is the one-plane case — k is y and there is a
// single row per k (j ∈ [0, 1)) — so it is split along Y, and a 3D box
// is split along Z with j = y. Walk k outer, j inner: that is the
// storage order in both dimensions.
//
// Build one with Grid2D.Rows or Grid3D.Rows; every field on that grid
// shares the layout, so one walker addresses all of a sweep's operands.
type Rows struct {
	// X0, X1 are the columns of every row.
	X0, X1 int
	// J0, J1 are the rows of one outer index: y in 3D, [0, 1) in 2D.
	J0, J1 int
	// K0, K1 are the outer indices: z in 3D, y in 2D.
	K0, K1 int

	org, sj, sk int // flat index of cell (0, 0, 0) and the j and k strides
}

// Rows returns the walker over b: one row per y, split along y.
func (g *Grid2D) Rows(b Bounds) Rows {
	return Rows{X0: b.X0, X1: b.X1, J0: 0, J1: 1, K0: b.Y0, K1: b.Y1, org: g.origin, sk: g.stride}
}

// Rows returns the walker over b: NY rows per z-plane, split along z.
func (g *Grid3D) Rows(b Bounds3D) Rows {
	return Rows{X0: b.X0, X1: b.X1, J0: b.Y0, J1: b.Y1, K0: b.Z0, K1: b.Z1,
		org: g.orig, sj: g.strideY, sk: g.strideZ}
}

// Empty reports whether the walker visits no cells.
func (w Rows) Empty() bool { return w.X0 >= w.X1 || w.J0 >= w.J1 || w.K0 >= w.K1 }

// N returns the width of every row.
func (w Rows) N() int { return w.X1 - w.X0 }

// Off returns the flat index of the first cell (column X0) of row (j, k).
func (w Rows) Off(j, k int) int { return w.org + k*w.sk + j*w.sj + w.X0 }

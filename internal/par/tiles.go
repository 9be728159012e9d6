package par

// This file is the box-shaped face of the band split: ForTiles and
// ForTilesReduceN take a 2D or 3D iteration box and cut it exactly as
// For and ForReduceN cut a range — one contiguous band per worker along
// the box's outermost axis (Y in 2D, Z in 3D), reduction partials folded
// in band order. Kernels written against a Box need not know which axis
// that is.

// Box is the iteration domain handed to ForTiles and ForTilesReduceN: a
// half-open 2D or 3D index box. Construct with Box2D or Box3D — the
// constructor records the dimensionality, which selects the outermost
// axis (Y in 2D, Z in 3D) the box is split along.
type Box struct {
	X0, X1, Y0, Y1, Z0, Z1 int
	dims                   int
}

// Box2D returns a 2D iteration box over [x0,x1)×[y0,y1).
func Box2D(x0, x1, y0, y1 int) Box {
	return Box{X0: x0, X1: x1, Y0: y0, Y1: y1, Z0: 0, Z1: 1, dims: 2}
}

// Box3D returns a 3D iteration box over [x0,x1)×[y0,y1)×[z0,z1).
func Box3D(x0, x1, y0, y1, z0, z1 int) Box {
	return Box{X0: x0, X1: x1, Y0: y0, Y1: y1, Z0: z0, Z1: z1, dims: 3}
}

// Empty reports whether the box contains no cells.
func (b Box) Empty() bool { return b.X1 <= b.X0 || b.Y1 <= b.Y0 || b.Z1 <= b.Z0 }

// Tile is one worker's band of a Box: the whole box on its inner axes
// and a contiguous run of its outermost axis (Y in 2D, Z in 3D). For 2D
// boxes Z0/Z1 are always 0/1.
type Tile struct {
	X0, X1, Y0, Y1, Z0, Z1 int
}

// outer returns the range of b's outermost axis.
func (b Box) outer() (lo, hi int) {
	if b.dims == 3 {
		return b.Z0, b.Z1
	}
	return b.Y0, b.Y1
}

// band returns the tile of b covering outer-axis rows [lo, hi).
func (b Box) band(lo, hi int) Tile {
	if b.dims == 3 {
		return Tile{X0: b.X0, X1: b.X1, Y0: b.Y0, Y1: b.Y1, Z0: lo, Z1: hi}
	}
	return Tile{X0: b.X0, X1: b.X1, Y0: lo, Y1: hi, Z0: b.Z0, Z1: b.Z1}
}

// ForTiles runs body once per band of b: For over b's outermost axis.
// body must be safe to call concurrently on distinct tiles. The
// reentrancy rules of For apply.
func (p *Pool) ForTiles(b Box, body func(t Tile)) {
	if b.Empty() {
		return
	}
	lo, hi := b.outer()
	p.For(lo, hi, func(lo, hi int) { body(b.band(lo, hi)) })
}

// ForTilesReduceN runs body once per band of b with k simultaneous sum
// reductions: ForReduceN over b's outermost axis, so body accumulates
// its band's contribution into acc (len k, zeroed) and the partials fold
// in band order — bit-identical for a fixed worker count.
func (p *Pool) ForTilesReduceN(k int, b Box, body func(t Tile, acc []float64)) []float64 {
	if b.Empty() {
		return make([]float64, k)
	}
	lo, hi := b.outer()
	return p.ForReduceN(k, lo, hi, func(lo, hi int, acc []float64) { body(b.band(lo, hi), acc) })
}

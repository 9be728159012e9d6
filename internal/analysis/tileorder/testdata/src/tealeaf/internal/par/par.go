// Package par is the analysistest stub of the worker pool: the loop and
// reducer method set tileorder matches on, with trivial serial bodies.
package par

// Pool mirrors par.Pool.
type Pool struct{ workers int }

// NewPool mirrors par.NewPool.
func NewPool(workers int) *Pool { return &Pool{workers: workers} }

// Box mirrors par.Box.
type Box struct{ X0, X1, Y0, Y1, Z0, Z1 int }

// Box2D mirrors par.Box2D.
func Box2D(x0, x1, y0, y1 int) Box { return Box{X0: x0, X1: x1, Y0: y0, Y1: y1, Z1: 1} }

// Tile mirrors par.Tile.
type Tile struct{ X0, X1, Y0, Y1, Z0, Z1 int }

// For mirrors par.(*Pool).For.
func (p *Pool) For(lo, hi int, body func(lo, hi int)) { body(lo, hi) }

// ForTiles mirrors par.(*Pool).ForTiles.
func (p *Pool) ForTiles(b Box, body func(t Tile)) {
	body(Tile{X0: b.X0, X1: b.X1, Y0: b.Y0, Y1: b.Y1, Z0: b.Z0, Z1: b.Z1})
}

// ForReduceN mirrors par.(*Pool).ForReduceN.
func (p *Pool) ForReduceN(k, lo, hi int, body func(lo, hi int, acc []float64)) []float64 {
	acc := make([]float64, k)
	body(lo, hi, acc)
	return acc
}

// ForTilesReduceN mirrors par.(*Pool).ForTilesReduceN.
func (p *Pool) ForTilesReduceN(k int, b Box, body func(t Tile, acc []float64)) []float64 {
	acc := make([]float64, k)
	body(Tile{X0: b.X0, X1: b.X1, Y0: b.Y0, Y1: b.Y1, Z0: b.Z0, Z1: b.Z1}, acc)
	return acc
}

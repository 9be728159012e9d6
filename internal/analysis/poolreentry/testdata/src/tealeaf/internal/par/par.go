// Package par is the analysistest stub of the worker pool: the dispatch
// method set poolreentry matches on, with trivial serial bodies.
package par

// Pool mirrors par.Pool.
type Pool struct{ workers int }

// NewPool mirrors par.NewPool.
func NewPool(workers int) *Pool { return &Pool{workers: workers} }

// For mirrors par.(*Pool).For.
func (p *Pool) For(lo, hi int, body func(lo, hi int)) { body(lo, hi) }

// ForReduce mirrors par.(*Pool).ForReduce.
func (p *Pool) ForReduce(lo, hi int, body func(lo, hi int) float64) float64 {
	return body(lo, hi)
}

// ForReduce2 mirrors par.(*Pool).ForReduce2.
func (p *Pool) ForReduce2(lo, hi int, body func(lo, hi int) (float64, float64)) (float64, float64) {
	return body(lo, hi)
}

// ForReduceN mirrors par.(*Pool).ForReduceN.
func (p *Pool) ForReduceN(k, lo, hi int, body func(lo, hi int, acc []float64)) []float64 {
	acc := make([]float64, k)
	body(lo, hi, acc)
	return acc
}

// Box mirrors par.Box.
type Box struct{ X0, X1, Y0, Y1, Z0, Z1 int }

// Tile mirrors par.Tile.
type Tile struct{ X0, X1, Y0, Y1, Z0, Z1 int }

// ForTiles mirrors par.(*Pool).ForTiles.
func (p *Pool) ForTiles(b Box, body func(t Tile)) {
	body(Tile{X0: b.X0, X1: b.X1, Y0: b.Y0, Y1: b.Y1, Z0: b.Z0, Z1: b.Z1})
}

// ForTilesReduceN mirrors par.(*Pool).ForTilesReduceN.
func (p *Pool) ForTilesReduceN(k int, b Box, body func(t Tile, acc []float64)) []float64 {
	acc := make([]float64, k)
	body(Tile{X0: b.X0, X1: b.X1, Y0: b.Y0, Y1: b.Y1, Z0: b.Z0, Z1: b.Z1}, acc)
	return acc
}

// ForBandsReduceN mirrors par.(*Pool).ForBandsReduceN.
func (p *Pool) ForBandsReduceN(k, lo, hi int, edge func(row int), body func(b0, b1 int, acc []float64)) []float64 {
	acc := make([]float64, k)
	body(lo, hi, acc)
	return acc
}

// Wavefront mirrors par.(*Pool).Wavefront.
func (p *Pool) Wavefront(steps, lo, hi int, row func(step, k int)) {
	for j := 0; j < steps; j++ {
		for k := lo; k < hi; k++ {
			row(j, k)
		}
	}
}

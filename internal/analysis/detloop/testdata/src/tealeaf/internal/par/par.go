// Package par is under the reproducibility contract: ForReduceN folds
// per-band partials in a fixed order, so detloop must flag
// map-order folds here exactly as in the other numeric packages. It is
// also the analysistest stub of the worker pool: the loop and reducer
// method set the For-body check matches on, with trivial serial bodies.
package par

// Pool mirrors par.Pool.
type Pool struct{ workers int }

// NewPool mirrors par.NewPool.
func NewPool(workers int) *Pool { return &Pool{workers: workers} }

// For mirrors par.(*Pool).For.
func (p *Pool) For(lo, hi int, body func(lo, hi int)) { body(lo, hi) }

// ForReduceN mirrors par.(*Pool).ForReduceN.
func (p *Pool) ForReduceN(k, lo, hi int, body func(lo, hi int, acc []float64)) []float64 {
	acc := make([]float64, k)
	body(lo, hi, acc)
	return acc
}

// badBandWeights folds per-band partials in map iteration order: the sum
// would differ run to run, the exact failure ForReduceN's band-order
// fold exists to rule out.
func badBandWeights(byBand map[int][]float64) []float64 {
	out := make([]float64, 1)
	for _, p := range byBand {
		for _, v := range p {
			out[0] += v // want `floating-point accumulation of out over randomized map iteration order`
		}
	}
	return out
}

// foldBands mirrors ForReduceN's fold: a slice walk in ascending band
// order — no map, no finding.
func foldBands(partial []float64, k int) []float64 {
	out := make([]float64, k)
	for b := 0; b*k < len(partial); b++ {
		for i := 0; i < k; i++ {
			out[i] += partial[b*k+i]
		}
	}
	return out
}

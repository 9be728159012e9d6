// Package par is under the reproducibility contract: ForReduceN folds
// per-band partials in a fixed order, so detloop must flag
// map-order folds here exactly as in the other numeric packages.
package par

// badTileWeights folds per-tile partials in map iteration order: the sum
// would differ run to run, the exact failure ForReduceN's band-order
// fold exists to rule out.
func badTileWeights(byTile map[int][]float64) []float64 {
	out := make([]float64, 1)
	for _, p := range byTile {
		for _, v := range p {
			out[0] += v // want `floating-point accumulation of out over randomized map iteration order`
		}
	}
	return out
}

// foldTiles mirrors ForTilesReduceN's fold: a slice walk in ascending
// tile order — no map, no finding.
func foldTiles(partial []float64, k int) []float64 {
	out := make([]float64, k)
	for t := 0; t*k < len(partial); t++ {
		for i := 0; i < k; i++ {
			out[i] += partial[t*k+i]
		}
	}
	return out
}

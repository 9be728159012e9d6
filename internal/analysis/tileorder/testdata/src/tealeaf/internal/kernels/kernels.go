// Package kernels holds the tile-fold violations tileorder must flag
// inside a numeric package, plus the sweeps and reductions it must
// accept.
package kernels

import "tealeaf/internal/par"

// Field stands in for a padded grid field.
type Field struct{ Data []float64 }

// badBandFold folds a dot product into a shared scalar from inside a
// plain For body: order follows the worker schedule.
func badBandFold(pool *par.Pool, x, y *Field) float64 {
	var sum float64
	pool.For(0, len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += x.Data[i] * y.Data[i] // want `floating-point fold of sum inside a parallel For body`
		}
	})
	return sum
}

// badTileFold does the same from a ForTiles body, spelled as x = x + v,
// through a struct field.
type accum struct{ total float64 }

func badTileFold(pool *par.Pool, b par.Box, x *Field) float64 {
	var a accum
	pool.ForTiles(b, func(t par.Tile) {
		for i := t.X0; i < t.X1; i++ {
			a.total = a.total + x.Data[i] // want `floating-point fold of a inside a parallel ForTiles body`
		}
	})
	return a.total
}

// goodSweep writes partitioned elements: no fold, no finding.
func goodSweep(pool *par.Pool, alpha float64, x, y *Field) {
	pool.For(0, len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y.Data[i] += alpha * x.Data[i]
		}
	})
}

// goodTileReduce folds through the fixed-order reducer with a body-local
// partial: the sanctioned pattern.
func goodTileReduce(pool *par.Pool, b par.Box, x, y *Field) float64 {
	acc := pool.ForTilesReduceN(1, b, func(t par.Tile, acc []float64) {
		var part float64
		for i := t.X0; i < t.X1; i++ {
			part += x.Data[i] * y.Data[i]
		}
		acc[0] += part
	})
	return acc[0]
}

// goodCounter folds a non-float counter: integer order never matters.
func goodCounter(pool *par.Pool, x *Field) int {
	n := 0
	pool.For(0, len(x.Data), func(lo, hi int) {
		n += hi - lo
	})
	return n
}

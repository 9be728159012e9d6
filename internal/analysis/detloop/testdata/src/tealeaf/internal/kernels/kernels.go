// Package kernels holds the For-body fold violations detloop must flag
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

// badFieldFold does the same spelled as x = x + v, through a struct
// field.
type accum struct{ total float64 }

func badFieldFold(pool *par.Pool, x *Field) float64 {
	var a accum
	pool.For(0, len(x.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a.total = a.total + x.Data[i] // want `floating-point fold of a inside a parallel For body`
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

// goodBandReduce folds through the fixed-order reducer with a body-local
// partial: the sanctioned pattern.
func goodBandReduce(pool *par.Pool, x, y *Field) float64 {
	acc := pool.ForReduceN(1, 0, len(x.Data), func(lo, hi int, acc []float64) {
		var part float64
		for i := lo; i < hi; i++ {
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

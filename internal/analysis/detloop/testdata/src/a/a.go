// Package a is outside the numeric package set: the same map-order and
// For-body folds are allowed here (reporting/CLI code may not need bit
// reproducibility).
package a

import "tealeaf/internal/par"

func weightSum(w map[string]float64) float64 {
	var s float64
	for _, v := range w {
		s += v
	}
	return s
}

// uncoveredFold is the For-body fold, equally allowed outside the numeric
// set.
func uncoveredFold(pool *par.Pool, xs []float64) float64 {
	var sum float64
	pool.For(0, len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i]
		}
	})
	return sum
}

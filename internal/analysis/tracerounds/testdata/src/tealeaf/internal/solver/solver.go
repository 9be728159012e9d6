// Package solver holds the layering cases for tracerounds: iteration
// code touching the raw Communicator (flagged) next to the wrapper
// methods that are the allowed surface.
package solver

import "tealeaf/internal/comm"

// engine mirrors the real solver engine: c is the raw communicator the
// loops must not touch.
type engine struct {
	c comm.Communicator
}

// dot is an allowlisted traced wrapper.
func (e *engine) dot(x, y float64) float64 {
	return e.c.AllReduceSum(x * y)
}

// reduce is an allowlisted traced wrapper.
func (e *engine) reduce(x float64) float64 {
	return e.c.AllReduceSum(x)
}

// reduceN is an allowlisted traced wrapper.
func (e *engine) reduceN(vals []float64) []float64 {
	return e.c.AllReduceSumN(vals)
}

// sys2d mirrors the 2D system backend; Exchange is its allowed
// pass-through.
type sys2d struct {
	c comm.Communicator
}

func (s *sys2d) Exchange(depth int, fields ...[]float64) error {
	return s.c.Exchange(depth, fields...)
}

// NewPowers only queries rank-local topology: Size is not a collective.
func (s *sys2d) NewPowers() int { return s.c.Size() }

// runLoop is an iteration loop: collectives must go through wrappers.
func (e *engine) runLoop(iters int, r []float64) float64 {
	rr := 0.0
	for it := 0; it < iters; it++ {
		sums := e.c.AllReduceSumN([]float64{rr, 1}) // want `direct Communicator AllReduceSumN in the solver`
		rr = sums[0]
		h := e.c.AllReduceSumNStart([]float64{rr}) // want `direct Communicator AllReduceSumNStart in the solver`
		rr = h.Finish()[0]
		h = e.c.AllReduceSumNStartTagged(it, []float64{rr}) // want `direct Communicator AllReduceSumNStartTagged in the solver`
		rr = h.Finish()[0]
	}
	return rr
}

// jacobiStep is the jacobi.go shape: a scalar error reduction.
func (e *engine) jacobiStep(localErr float64) float64 {
	return e.c.AllReduceSum(localErr) // want `direct Communicator AllReduceSum in the solver`
}

// exchangeDirect bypasses the system pass-through.
func (e *engine) exchangeDirect(r []float64) error {
	return e.c.Exchange(1, r) // want `direct Communicator Exchange in the solver`
}

// viaWrappers is the clean loop: every round goes through the surface.
func (e *engine) viaWrappers(iters int, r []float64) float64 {
	rr := 0.0
	for it := 0; it < iters; it++ {
		rr = e.dot(rr, rr)
		sums := e.reduceN([]float64{rr, 1})
		rr = sums[0]
	}
	return rr
}

// localQueries touch rank-local state only: exempt.
func (e *engine) localQueries() int {
	return e.c.Rank() + e.c.Size()
}

// Package b holds split-phase reduction usage the splitreduce analyzer
// must accept: the overlap idioms the pipelined CG engine actually uses,
// and the field-stashed handle it must not mistake for a hand-off.
package b

import "tealeaf/internal/comm"

// pipelinedLoop mirrors runCGPipelinedCore: one round per iteration,
// posted before the overlapped work, finished after it, with the error
// path draining the handle before returning.
func pipelinedLoop(c comm.Communicator, iters int, compute func() error) ([]float64, error) {
	g, d, rr := 1.0, 2.0, 3.0
	var out []float64
	for i := 0; ; i++ {
		h := c.AllReduceSumNStart([]float64{g, d, rr})
		if err := compute(); err != nil {
			h.Finish() // drain: leave the collective state clean on error paths
			return nil, err
		}
		out = h.Finish()
		if i >= iters {
			break
		}
	}
	return out, nil
}

// exchangeOverlap runs a halo exchange between the phases — explicitly
// allowed; hiding the exchange is the point of the split.
func exchangeOverlap(c comm.Communicator, x []float64) ([]float64, error) {
	h := c.AllReduceSumNStart(x)
	if err := c.Exchange(1, x); err != nil {
		h.Finish()
		return nil, err
	}
	return h.Finish(), nil
}

// overlapGoroutine overlaps the round with an exchange on a plain
// goroutine, the split-sweeps idiom of engine.applyPreDotX.
func overlapGoroutine(c comm.Communicator, x []float64) []float64 {
	h := c.AllReduceSumNStart(x)
	done := make(chan error, 1)
	go func() { done <- c.Exchange(1, x) }()
	<-done
	return h.Finish()
}

// startTraced is a Start wrapper: it hands the obligation to its caller
// with the handle, like the solver engine's traced wrapper.
func startTraced(c comm.Communicator, vals []float64) comm.ReduceHandle {
	return c.AllReduceSumNStart(vals)
}

// viaWrapper consumes a wrapper-started round; the call site counts as
// the Start.
func viaWrapper(c comm.Communicator, work func()) []float64 {
	h := startTraced(c, []float64{1, 2, 3})
	work()
	return h.Finish()
}

// sequentialRounds runs rounds back to back — never more than one in
// flight.
func sequentialRounds(c comm.Communicator) []float64 {
	h := c.AllReduceSumNStart([]float64{1})
	first := h.Finish()
	h2 := c.AllReduceSumNStart(first)
	return h2.Finish()
}

// blockingBetweenRounds may use every collective once nothing is in
// flight.
func blockingBetweenRounds(c comm.Communicator, x float64) float64 {
	h := c.AllReduceSumNStart([]float64{x})
	sums := h.Finish()
	c.Barrier()
	return c.AllReduceSum(sums[0])
}

// balancedBranches finishes on both branches.
func balancedBranches(c comm.Communicator, p bool) []float64 {
	h := c.AllReduceSumNStart([]float64{1})
	if p {
		return h.Finish()
	}
	res := h.Finish()
	return res
}

// holder keeps a handle in a struct field.
type holder struct {
	c comm.Communicator
	h comm.ReduceHandle
}

// stashedRound stores its handle in a field and returns unfinished: only
// returning the handle hands the Finish obligation on, so the round is
// reported as leaked.
func stashedRound(s *holder, vals []float64) {
	s.h = s.c.AllReduceSumNStartTagged(1, vals)
} // want `function ends with a split-phase reduction in flight`

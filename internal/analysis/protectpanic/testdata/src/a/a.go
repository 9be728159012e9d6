// Package a holds the unprotected-TCP-panic violations the protectpanic
// analyzer must flag.
package a

import "tealeaf/internal/comm"

// nakedReduce calls a panic-capable method with no recovery scope.
func nakedReduce(t *comm.TCP, x float64) float64 {
	return t.AllReduceSum(x) // want `\(\*comm.TCP\).AllReduceSum can panic with \*TCPError`
}

// nakedBarrier synchronises outside any recovery scope.
func nakedBarrier(t *comm.TCP) {
	t.Barrier() // want `\(\*comm.TCP\).Barrier can panic with \*TCPError`
}

// nakedStart runs a round through the Start adapter with no recovery
// scope.
func nakedStart(t *comm.TCP, vals []float64) comm.ReduceHandle {
	return t.AllReduceSumNStart(vals) // want `\(\*comm.TCP\).AllReduceSumNStart can panic with \*TCPError`
}

// nakedStartTagged is the tagged form of the same round.
func nakedStartTagged(t *comm.TCP, vals []float64) comm.ReduceHandle {
	return t.AllReduceSumNStartTagged(1, vals) // want `\(\*comm.TCP\).AllReduceSumNStartTagged can panic with \*TCPError`
}

// goInsideProtect spawns a goroutine from a Protect literal: recover only
// fires on the panicking goroutine, so the spawned calls are unprotected.
func goInsideProtect(t *comm.TCP) error {
	return t.Protect(func() error {
		done := make(chan struct{})
		go func() {
			t.Barrier() // want `\(\*comm.TCP\).Barrier can panic with \*TCPError`
			close(done)
		}()
		<-done
		return nil
	})
}

// goCallInsideProtect spawns the panic-capable call itself.
func goCallInsideProtect(t *comm.TCP, x float64) error {
	return t.Protect(func() error {
		go t.AllReduceMax(x) // want `\(\*comm.TCP\).AllReduceMax can panic with \*TCPError`
		return nil
	})
}

// solve stands in for core.RunRank: it reduces through the interface.
func solve(c comm.Communicator) float64 { return c.AllReduceSum(1) }

// escapeUnprotected hands the concrete *TCP to an interface-typed callee
// with no recovery scope in place.
func escapeUnprotected(t *comm.TCP) float64 {
	return solve(t) // want `\*comm.TCP escapes as an interface argument outside a comm.Protect/RunTCP recovery scope`
}

// helperTakingTCP keeps the concrete type across a call boundary and
// reduces unprotected.
func helperTakingTCP(t *comm.TCP, x, y float64) (float64, float64) {
	return t.AllReduceSum2(x, y) // want `\(\*comm.TCP\).AllReduceSum2 can panic with \*TCPError`
}

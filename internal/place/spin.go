package place

import (
	"runtime"
	"sync/atomic"
	"time"
)

// SpinWindow is how long a waiter at a rendezvous keeps retrying the
// non-blocking form of its wait before it parks. Parking hands the thread
// back to the scheduler, and waking it again costs a trip through the
// kernel (and, on a virtual machine, the hypervisor) that is long next to
// a sweep of a few hundred microseconds; an OpenMP or MPI runtime
// busy-polls for a while before sleeping for the same reason. 1 ms covers
// the gap between two regions of a pool or two messages of a solve.
const SpinWindow = time.Millisecond

// threads counts the threads of this process that want a CPU at once
// beyond the one that started the run; peers counts the other processes
// of the run on this host, each taken to run as many threads as this one.
// They are process-wide on purpose: every team and rank launch in the
// process competes for the same CPUs.
var threads, peers atomic.Int64

// cpus is how many threads this process can run at once: the CPUs its
// threads may use, or GOMAXPROCS where that is fewer.
var cpus = func() int {
	n := usableCPUs()
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return min(n, runtime.GOMAXPROCS(0))
}()

// Claim records n more threads of this process that compute at once — a
// team's helpers, the ranks a launch runs beside its caller — until the
// returned release is called. Release is idempotent.
func Claim(n int) (release func()) { return claim(&threads, n) }

// ClaimPeers records n other processes of the run on this host, each
// running as many threads as this one, until the returned release is
// called. Release is idempotent.
func ClaimPeers(n int) (release func()) { return claim(&peers, n) }

func claim(c *atomic.Int64, n int) func() {
	c.Add(int64(n))
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			c.Add(-int64(n))
		}
	}
}

// Busy returns how many threads the runs of this process compute on at
// once on this host: the caller, plus every claimed thread, times the
// processes of the run here.
func Busy() int { return int((1 + threads.Load()) * (1 + peers.Load())) }

// Spin calls ready, yielding to other goroutines between tries
// (runtime.Gosched), until it reports true or SpinWindow has passed, and
// reports whether it did. It makes no try at all while the run's busy
// threads outnumber the CPUs: a waiter that spins then holds, for the
// whole window, a CPU the thread it waits for needs. A caller that gets
// false parks as it would without Spin, so ready must be the non-blocking
// form of the caller's wait.
func Spin(ready func() bool) bool {
	if Busy() > cpus {
		return false
	}
	start := time.Now()
	for !ready() {
		if time.Since(start) >= SpinWindow {
			return false
		}
		runtime.Gosched()
	}
	return true
}

package place

import (
	"testing"
	"time"
)

// withCPUs runs the test as if this process could run n threads at once.
func withCPUs(t *testing.T, n int) {
	was := cpus
	cpus = n
	t.Cleanup(func() { cpus = was })
}

// tries counts the calls Spin makes to a ready that is never ready.
func tries() int {
	n := 0
	Spin(func() bool { n++; return false })
	return n
}

// The budget rule: a waiter spins only while the caller, its claimed
// threads and the claimed processes beside it fit the CPUs, and every
// release gives its claim back once.
func TestSpinBudget(t *testing.T) {
	withCPUs(t, 4)
	if Busy() != 1 {
		t.Fatalf("Busy() = %d with nothing claimed, want 1", Busy())
	}
	ranks := Claim(1) // a second rank beside the caller
	if Busy() != 2 || tries() == 0 {
		t.Fatalf("2 busy threads on 4 CPUs: Busy() = %d, spin tries %d, want 2 and some", Busy(), tries())
	}
	workers := Claim(2) // each rank's helper: 2 ranks × 2 workers
	if Busy() != 4 || tries() == 0 {
		t.Errorf("4 busy threads on 4 CPUs: Busy() = %d, spin tries %d, want 4 and some", Busy(), tries())
	}
	host := ClaimPeers(1) // the same run in a second process on this host
	if Busy() != 8 || tries() != 0 {
		t.Errorf("8 busy threads on 4 CPUs: Busy() = %d, spin tries %d, want 8 and none", Busy(), tries())
	}
	workers()
	workers()
	if Busy() != 4 || tries() == 0 {
		t.Errorf("after the workers' release: Busy() = %d, spin tries %d, want 4 and some", Busy(), tries())
	}
	withCPUs(t, 3)
	if tries() != 0 {
		t.Error("4 busy threads on 3 CPUs spun")
	}
	host()
	ranks()
	if Busy() != 1 {
		t.Errorf("Busy() = %d after every release, want 1", Busy())
	}
}

// Spin returns true on the try that is ready, and false once the window
// has passed without one.
func TestSpinWindow(t *testing.T) {
	withCPUs(t, 1)
	n := 0
	if !Spin(func() bool { n++; return n == 3 }) || n != 3 {
		t.Errorf("Spin over a ready third try: %d tries", n)
	}
	start := time.Now()
	if Spin(func() bool { return false }) {
		t.Error("Spin over a never-ready wait reported ready")
	}
	if d := time.Since(start); d < SpinWindow {
		t.Errorf("Spin gave up after %v, before the %v window", d, SpinWindow)
	}
}

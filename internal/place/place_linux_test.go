//go:build linux && (amd64 || arm64)

package place

import (
	"runtime"
	"testing"
	"time"
)

func allowedCPUs() []int {
	var m cpuMask
	getAffinity(&m)
	return m.cpus()
}

// onThread runs fn on a second thread that sits on the given CPU.
func onThread(cpus []int, cpu int, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i, c := range cpus {
			if c == cpu {
				Spread(cpus[(i+len(cpus)-1)%len(cpus)], 1) // one on from the CPU before it
			}
		}
		fn()
	}()
	<-done
}

// Member 1 moves off the CPU where member 0 reported another thread, not
// when member 0's report came from member 1's own thread, and not twice
// within moveEvery; a Group with more members than CPUs is nil.
func TestGroupMovesHigherMemberOff(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpus := allowedCPUs()
	if len(cpus) < 2 {
		t.Skip("one usable CPU")
	}
	if g := NewGroup(len(cpus) + 1); g != nil {
		t.Errorf("NewGroup(%d) on %d CPUs is not nil", len(cpus)+1, len(cpus))
	}
	(*Group)(nil).Check(3)

	// A second move moveEvery or more after the first is allowed, so a
	// second check that comes that late (a loaded host) shows nothing:
	// then the whole scene is set again, a bounded number of times.
	for scene := 0; ; scene++ {
		if scene == 5 {
			t.Fatalf("the second check came %v or more after the first move in each of %d scenes", moveEvery, scene)
		}
		g := NewGroup(2)
		here := Current()
		g.Check(0)
		g.Check(1)
		if g.moved.Load() != 0 {
			t.Fatalf("member 1 moved away from its own thread's report on CPU %d", here)
		}
		// Member 0 reports from a helper thread on member 1's CPU. While
		// member 1 waits for the helper the kernel may wake its thread on
		// another CPU, and then Check rightly finds nothing to move away
		// from: set the scene again from where it woke.
		for try := 0; g.moved.Load() == 0; try++ {
			if try == 20 {
				t.Fatalf("member 1 never checked in beside member 0's thread in %d tries", try)
			}
			here = Current()
			onThread(cpus, here, func() {
				if at := Current(); at != here {
					t.Errorf("helper thread is on CPU %d, want %d", at, here)
				}
				g.Check(0)
			})
			g.Check(1)
		}
		moved := Current()
		if moved == here {
			t.Fatalf("member 1 stayed on CPU %d beside member 0's thread", here)
		}
		first := g.moved.Load()
		// The second check must not move again within moveEvery. Asked
		// through Current() this could fail by itself: once Spread hands
		// the mask back the kernel may migrate the thread on its own. The
		// group's own move record changes only when Check moves.
		onThread(cpus, moved, func() { g.Check(0) })
		g.Check(1)
		again := g.moved.Load()
		if again == first {
			return
		}
		if d := time.Duration(again - first); d < moveEvery {
			t.Fatalf("second move within %v: the group moved again %v after the first", moveEvery, d)
		}
	}
}

// TestSpreadMovesThreadAndRestoresMask needs two CPUs this process may
// use; it skips otherwise.
func TestSpreadMovesThreadAndRestoresMask(t *testing.T) {
	runtime.LockOSThread() // so Current before and after asks about one thread
	defer runtime.UnlockOSThread()
	base := Current()
	before := allowedCPUs()
	if len(before) < 2 {
		t.Skipf("thread may use only CPUs %v", before)
	}
	at := 0
	for i, c := range before {
		if c == base {
			at = i
		}
	}
	for slot := 1; slot <= len(before); slot++ {
		want := before[(at+slot)%len(before)]
		Spread(base, slot)
		if got := Current(); got != want {
			t.Errorf("Spread(%d, %d): thread is on CPU %d, want %d of %v", base, slot, got, want, before)
		}
		if after := allowedCPUs(); len(after) != len(before) {
			t.Fatalf("Spread(%d, %d) left the thread with CPUs %v, had %v", base, slot, after, before)
		}
		Spread(Current(), len(before)-slot) // back to base for the next slot
	}
	Spread(-1, 1)
	Spread(base, 0)
	if after := allowedCPUs(); len(after) != len(before) {
		t.Errorf("no-op Spread calls left the thread with CPUs %v, had %v", after, before)
	}
}

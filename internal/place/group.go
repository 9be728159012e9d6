package place

import (
	"sync/atomic"
	"time"
)

// A Group keeps the members of one team — the ranks of a launch, the
// workers of a pool — off each other's CPUs where the kernel will not.
// Goroutines change threads whenever they park, so starting them apart
// is not enough: each member calls Check when it is about to compute,
// and one that finds its thread on the CPU where a lower-numbered member
// last reported a different thread moves its own to the next CPU. (The
// same thread means the other member is not there any more — the
// scheduler resumed this one on the thread that one parked on — and
// there is nothing to get away from.) Member 0 never moves. A nil Group
// checks nothing.
type Group struct {
	at    []atomic.Uint64 // each member's last report: thread id<<32 | CPU+1; 0 = none yet
	moved atomic.Int64    // when a member last moved its thread, UnixNano
}

// moveEvery is the least time between two moves in one Group. A kernel
// that does balance threads but has more of them than CPUs keeps putting
// members beside each other; moving away every time cost a 2-rank ×
// 2-worker solve on 2 CPUs 8–12 %.
const moveEvery = 10 * time.Millisecond

// NewGroup returns a Group of n members, or nil when the calling thread
// may use fewer than n CPUs (or n is 1): members that have to share a CPU
// anyway are left where the kernel puts them.
func NewGroup(n int) *Group {
	if n < 2 || usableCPUs() < n {
		return nil
	}
	return &Group{at: make([]atomic.Uint64, n)}
}

// Check reports where member i is running and moves its thread on if a
// lower-numbered member was last seen on the same CPU in another thread.
func (g *Group) Check(i int) {
	if g == nil {
		return
	}
	cpu, tid := Current(), threadID()
	if cpu < 0 {
		return
	}
	here := uint64(tid)<<32 | uint64(cpu+1)
	g.at[i].Store(here)
	for j := 0; j < i; j++ {
		if there := g.at[j].Load(); uint32(there) != uint32(here) || there == here {
			continue
		}
		now, last := time.Now().UnixNano(), g.moved.Load()
		if now-last >= int64(moveEvery) && g.moved.CompareAndSwap(last, now) {
			Spread(cpu, 1)
			g.at[i].Store(uint64(tid)<<32 | uint64(Current()+1))
		}
		return
	}
}

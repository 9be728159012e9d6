package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tealeaf/internal/place"
)

// A warmed 2-worker For whose body allocates nothing allocates nothing:
// the region travels in the team, the join is a count and a token.
func TestForAllocatesNothing(t *testing.T) {
	p := NewPool(2).WithGrain(1)
	defer p.Close()
	xs := make([]float64, 1000)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i]++
		}
	}
	p.For(0, len(xs), body)
	if a := testing.AllocsPerRun(100, func() { p.For(0, len(xs), body) }); a != 0 {
		t.Errorf("warmed 2-worker For allocates %v times per region, want 0", a)
	}
	for i, x := range xs {
		if x != 102 { // the warm-up, AllocsPerRun's own warm-up and 100 runs
			t.Fatalf("xs[%d] = %v after 102 regions", i, x)
		}
	}
}

// A helper that has waited past the spin window parks, and the next
// region still reaches it; a dispatcher whose helper finishes past the
// window parks on the join and still gets every block.
func TestPoolLatePeers(t *testing.T) {
	const late = 3 * place.SpinWindow
	p := NewPool(2).WithGrain(1)
	defer p.Close()
	var covered atomic.Int64
	count := func(lo, hi int) { covered.Add(int64(hi - lo)) }
	p.For(0, 100, count)
	time.Sleep(late) // the helper's spin ends; it parks
	p.For(0, 100, count)
	if got := covered.Load(); got != 200 {
		t.Fatalf("late region: covered %d of 200", got)
	}
	var blocks [2]atomic.Int64
	p.For(0, 100, func(lo, hi int) {
		if lo > 0 {
			time.Sleep(late) // the dispatcher's join spin ends; it parks
			blocks[1].Add(int64(hi - lo))
			return
		}
		blocks[0].Add(int64(hi - lo))
	})
	if blocks[0].Load()+blocks[1].Load() != 100 || blocks[1].Load() == 0 {
		t.Fatalf("late join: blocks covered %d and %d of 100", blocks[0].Load(), blocks[1].Load())
	}
}

// Stopping a team ends a helper's spin at once, not when its window runs
// out. The helper is waited on directly, so nothing else competes for
// the CPU it spins on, and stopped as it starts to wait, well inside its
// window; the best of a few tries is compared, as the host may hold any
// one of them up.
func TestStopEndsSpinningHelper(t *testing.T) {
	runtime.GC() // pools earlier tests dropped give their claims back
	runtime.GC()
	if place.Busy() >= runtime.GOMAXPROCS(0) {
		t.Skipf("%d busy threads on %d CPUs: a helper would not spin", place.Busy(), runtime.GOMAXPROCS(0))
	}
	best := time.Hour
	for range 5 {
		tm := &team{work: []chan struct{}{make(chan struct{}, 1)}, quit: make(chan struct{}), release: func() {}}
		waiting, ran := make(chan struct{}), make(chan bool)
		go func() {
			close(waiting)
			ran <- tm.wait(0, true)
		}()
		<-waiting
		start := time.Now()
		tm.stop()
		if <-ran {
			t.Fatal("a stopped helper reported a region to run")
		}
		best = min(best, time.Since(start))
	}
	if best >= place.SpinWindow/2 {
		t.Errorf("a spinning helper took %v to see its team stop (spin window %v)", best, place.SpinWindow)
	}
}

package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers).WithGrain(1)
		n := 1000
		hits := make([]int32, n)
		p.For(0, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	p := NewPool(4)
	called := false
	p.For(5, 5, func(lo, hi int) { called = true })
	p.For(8, 3, func(lo, hi int) { called = true })
	if called {
		t.Error("body must not run on empty range")
	}
}

func TestForSmallRangeRunsInline(t *testing.T) {
	p := NewPool(8) // default grain 64
	calls := 0
	p.For(0, 10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("inline call got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("small range split into %d calls, want 1", calls)
	}
}

func TestForReduceSum(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := NewPool(workers).WithGrain(1)
		n := 10000
		got := p.ForReduce(0, n, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			return s
		})
		want := float64(n*(n-1)) / 2
		if got != want {
			t.Errorf("workers=%d: sum = %v, want %v", workers, got, want)
		}
	}
}

func TestForReduceDeterministic(t *testing.T) {
	// Same worker count => bit-identical result, even for a sum whose
	// value depends on association order.
	p := NewPool(4).WithGrain(1)
	body := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += 1.0 / float64(i+1)
		}
		return s
	}
	a := p.ForReduce(0, 100000, body)
	for i := 0; i < 5; i++ {
		if b := p.ForReduce(0, 100000, body); b != a {
			t.Fatalf("run %d differs: %v vs %v", i, b, a)
		}
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Error("NewPool(0) must pick at least one worker")
	}
	if NewPool(-3).Workers() < 1 {
		t.Error("NewPool(negative) must pick at least one worker")
	}
	if Serial.Workers() != 1 {
		t.Error("Serial must have one worker")
	}
	if NewPool(4).WithGrain(0).minGrain != 1 {
		t.Error("WithGrain must clamp to 1")
	}
}

func TestForReduceMatchesSerialQuick(t *testing.T) {
	serial := NewPool(1)
	parallel := NewPool(5).WithGrain(1)
	f := func(nu uint16) bool {
		n := int(nu % 2048)
		body := func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += float64(i * i)
			}
			return s
		}
		a := serial.ForReduce(0, n, body)
		b := parallel.ForReduce(0, n, body)
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentTeamReuse(t *testing.T) {
	p := NewPool(4).WithGrain(1)
	defer p.Close()
	if !p.Persistent() {
		t.Fatal("NewPool(4) must build a persistent team")
	}
	// Many back-to-back regions through the same parked workers.
	n := 512
	for round := 0; round < 200; round++ {
		var total int64
		p.For(0, n, func(lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
		if total != int64(n) {
			t.Fatalf("round %d covered %d of %d", round, total, n)
		}
	}
}

// TestForkAndPersistentAgree: a closed pool's regions fork goroutines
// instead of dispatching to the team, over the same blocks — so the
// same sums, bit for bit.
func TestForkAndPersistentAgree(t *testing.T) {
	body := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += 1.0 / float64(i+1)
		}
		return s
	}
	for _, workers := range []int{1, 2, 4, 7} {
		pp := NewPool(workers).WithGrain(1)
		fp := NewPool(workers).WithGrain(1)
		fp.Close()
		a := pp.ForReduce(0, 50000, body)
		b := fp.ForReduce(0, 50000, body)
		if a != b {
			t.Errorf("workers=%d: persistent %v != fork %v", workers, a, b)
		}
		pp.Close()
	}
}

func TestCloseFallsBackToFork(t *testing.T) {
	p := NewPool(4).WithGrain(1)
	p.Close()
	p.Close() // idempotent
	var total int64
	p.For(0, 1000, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
	if total != 1000 {
		t.Fatalf("closed pool covered %d of 1000", total)
	}
}

func TestForReduceN(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers).WithGrain(1)
		n := 4001 // odd on purpose
		got := p.ForReduceN(3, 0, n, func(lo, hi int, acc []float64) {
			for i := lo; i < hi; i++ {
				acc[0] += float64(i)
				acc[1] += 2 * float64(i)
				acc[2]++
			}
		})
		want0 := float64(n*(n-1)) / 2
		if got[0] != want0 || got[1] != 2*want0 || got[2] != float64(n) {
			t.Errorf("workers=%d: ForReduceN = %v, want [%v %v %v]",
				workers, got, want0, 2*want0, float64(n))
		}
		p.Close()
	}
}

func TestForReduceNEdgeCases(t *testing.T) {
	p := NewPool(4).WithGrain(1)
	defer p.Close()
	if got := p.ForReduceN(2, 5, 5, func(lo, hi int, acc []float64) { acc[0] = 99 }); got[0] != 0 || got[1] != 0 {
		t.Errorf("empty range: got %v", got)
	}
	if got := p.ForReduceN(0, 0, 100, func(lo, hi int, acc []float64) {}); len(got) != 0 {
		t.Errorf("k=0: got %v", got)
	}
}

func TestForReduceNDeterministic(t *testing.T) {
	p := NewPool(7).WithGrain(1)
	defer p.Close()
	body := func(lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			acc[0] += 1.0 / float64(i+1)
			acc[1] += 1.0 / float64(i*i+1)
		}
	}
	a := p.ForReduceN(2, 0, 100000, body)
	for i := 0; i < 5; i++ {
		b := p.ForReduceN(2, 0, 100000, body)
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("run %d differs: %v vs %v", i, b, a)
		}
	}
}

func TestConcurrentDispatch(t *testing.T) {
	// Multiple goroutines (simulated ranks) sharing one team: dispatches
	// serialise but must stay correct.
	p := NewPool(4).WithGrain(1)
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				got := p.ForReduce(0, 1000, func(lo, hi int) float64 {
					var s float64
					for i := lo; i < hi; i++ {
						s += float64(i)
					}
					return s
				})
				if got != 499500 {
					errs <- "bad sum"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestWithGrainSharesTeam(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	q := p.WithGrain(1)
	if !q.Persistent() {
		t.Fatal("WithGrain must share the persistent team")
	}
	var total int64
	q.For(0, 100, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
	if total != 100 {
		t.Fatalf("covered %d of 100", total)
	}
}

func TestWithGrainCopySurvivesGC(t *testing.T) {
	// Regression: only a WithGrain copy of a pool stays reachable. The
	// GC backstop must not shut the shared team down underneath it, and
	// a racing shutdown must never strand a dispatched job.
	q := NewPool(4).WithGrain(1)
	defer q.Close()
	for round := 0; round < 50; round++ {
		runtime.GC()
		got := q.ForReduce(0, 1000, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			return s
		})
		if got != 499500 {
			t.Fatalf("round %d: sum = %v", round, got)
		}
	}
}

func TestCloseDuringConcurrentUse(t *testing.T) {
	// Closing a pool while other goroutines dispatch must not deadlock:
	// dispatches either run on the team or fall back to forking.
	p := NewPool(4).WithGrain(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				var total int64
				p.For(0, 500, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
				if total != 500 {
					t.Errorf("covered %d of 500", total)
					return
				}
			}
		}()
	}
	p.Close()
	wg.Wait()
}

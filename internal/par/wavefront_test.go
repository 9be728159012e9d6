package par

import (
	"sync/atomic"
	"testing"
)

// TestWavefrontOrder runs every (step, row) exactly once and starts step
// j at row k only after step j−1 has finished rows k−1..k+1 — checked
// from inside the callbacks while they run on the team, so a schedule
// that lets a band or a triangle run ahead fails here (and under -race
// the checks themselves are the synchronisation being tested). Ranges go
// from too thin for two bands up to many bands per worker count.
func TestWavefrontOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7} {
		pool := NewPool(workers).WithGrain(1)
		for steps := 1; steps <= 5; steps++ {
			for _, rows := range []int{1, 2, 5, 7, 8, 13, 24, 40} {
				const lo = -3
				started := make([]atomic.Bool, steps*rows)
				done := make([]atomic.Bool, steps*rows)
				var bad atomic.Int64
				pool.Wavefront(steps, lo, lo+rows, func(j, k int) {
					i := k - lo
					if i < 0 || i >= rows || j < 0 || j >= steps || started[j*rows+i].Swap(true) {
						bad.Add(1)
						return
					}
					if j > 0 {
						for d := -1; d <= 1; d++ {
							if n := i + d; n >= 0 && n < rows && !done[(j-1)*rows+n].Load() {
								bad.Add(1)
							}
						}
					}
					done[j*rows+i].Store(true)
				})
				missing := 0
				for i := range done {
					if !done[i].Load() {
						missing++
					}
				}
				if bad.Load() != 0 || missing != 0 {
					t.Errorf("workers=%d steps=%d rows=%d: %d out-of-order or repeated rows, %d rows never run",
						workers, steps, rows, bad.Load(), missing)
				}
			}
		}
		pool.Close()
	}
}

package par

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestForBandsReduceN: the bands are ForTilesReduceN's untiled bands and
// the partials fold the same way, bit for bit; edge runs exactly once for
// each row next to an internal cut — the first row of every band but the
// first and the last of every band but the last — and every edge call
// finishes before any band starts.
func TestForBandsReduceN(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		for _, grain := range []int{DefaultGrain, 1} {
			p := NewPool(workers).WithGrain(grain)
			for _, span := range [][2]int{{0, 1}, {-2, 5}, {3, 9}, {0, 100}} {
				lo, hi := span[0], span[1]
				label := fmt.Sprintf("workers=%d grain=%d [%d,%d)", workers, grain, lo, hi)
				// A non-associative per-row term, so a different split or
				// fold order shows in the bits.
				term := func(k int) float64 { return 1 / float64(3+k*k) }
				want := p.ForTilesReduceN(2, Box2D(0, 1, lo, hi), func(tl Tile, acc []float64) {
					for k := tl.Y0; k < tl.Y1; k++ {
						acc[0] += term(k)
						acc[1] += float64(k)
					}
				})
				var mu sync.Mutex
				edges := map[int]int{}
				started := false
				var bands [][2]int
				got := p.ForBandsReduceN(2, lo, hi, func(k int) {
					mu.Lock()
					defer mu.Unlock()
					if started {
						t.Errorf("%s: edge(%d) after a band started", label, k)
					}
					edges[k]++
				}, func(b0, b1 int, acc []float64) {
					mu.Lock()
					started = true
					bands = append(bands, [2]int{b0, b1})
					mu.Unlock()
					for k := b0; k < b1; k++ {
						acc[0] += term(k)
						acc[1] += float64(k)
					}
				})
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s: sum %d = %v, ForTilesReduceN %v", label, i, got[i], want[i])
					}
				}
				wantEdges := map[int]int{}
				for _, b := range bands {
					if b[0] != lo {
						wantEdges[b[0]] = 1
					}
					if b[1] != hi {
						wantEdges[b[1]-1] = 1
					}
				}
				if fmt.Sprint(edges) != fmt.Sprint(wantEdges) {
					t.Errorf("%s: edge calls %v for bands %v, want %v", label, edges, bands, wantEdges)
				}
			}
			p.Close()
		}
	}
}

package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForTilesCoversBoxExactlyOnce(t *testing.T) {
	nx, ny, nz := 37, 23, 11
	for _, workers := range []int{1, 2, 4, 7} {
		for _, grain := range []int{DefaultGrain, 1} {
			p := NewPool(workers).WithGrain(grain)
			for _, b := range []Box{Box3D(0, nx, 0, ny, 0, nz), Box2D(0, nx, 0, ny*nz)} {
				hits := make([]int32, nx*ny*nz)
				p.ForTiles(b, func(tl Tile) {
					for k := tl.Z0; k < tl.Z1; k++ {
						for j := tl.Y0; j < tl.Y1; j++ {
							for i := tl.X0; i < tl.X1; i++ {
								atomic.AddInt32(&hits[(k*ny+j)*nx+i], 1)
							}
						}
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d grain=%d dims=%d: cell %d hit %d times", workers, grain, b.dims, i, h)
					}
				}
			}
			p.Close()
		}
	}
}

func TestForTiles2DCoversOffsetBox(t *testing.T) {
	// 2D boxes with non-zero origins (interior bounds start at 0 but
	// matrix-powers boxes go negative).
	p := NewPool(4).WithGrain(1)
	defer p.Close()
	x0, x1, y0, y1 := -2, 31, -4, 17
	nx, ny := x1-x0, y1-y0
	hits := make([]int32, nx*ny)
	p.ForTiles(Box2D(x0, x1, y0, y1), func(tl Tile) {
		if tl.Z0 != 0 || tl.Z1 != 1 {
			t.Errorf("2D tile has Z bounds [%d,%d)", tl.Z0, tl.Z1)
		}
		if tl.X0 != x0 || tl.X1 != x1 {
			t.Errorf("2D tile splits x: [%d,%d)", tl.X0, tl.X1)
		}
		for j := tl.Y0; j < tl.Y1; j++ {
			for i := tl.X0; i < tl.X1; i++ {
				atomic.AddInt32(&hits[(j-y0)*nx+(i-x0)], 1)
			}
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("cell %d hit %d times", i, h)
		}
	}
}

func TestForTilesEmptyBox(t *testing.T) {
	p := NewPool(4).WithGrain(1)
	defer p.Close()
	called := false
	p.ForTiles(Box2D(5, 5, 0, 10), func(Tile) { called = true })
	p.ForTiles(Box3D(0, 4, 3, 3, 0, 4), func(Tile) { called = true })
	if called {
		t.Error("body must not run on an empty box")
	}
	for _, b := range []Box{Box2D(7, 2, 0, 5), Box3D(0, 4, 0, 4, 2, 2)} {
		got := p.ForTilesReduceN(2, b, func(Tile, []float64) { called = true })
		if called || len(got) != 2 || got[0] != 0 || got[1] != 0 {
			t.Errorf("empty box %+v reduced to %v (body called: %v)", b, got, called)
		}
	}
}

// tileHarmonic is a reduction whose value depends on association order,
// so bit-equality with ForReduceN actually tests the bands and the fold.
func tileHarmonic(nx int) func(tl Tile, acc []float64) {
	return func(tl Tile, acc []float64) {
		for k := tl.Z0; k < tl.Z1; k++ {
			for j := tl.Y0; j < tl.Y1; j++ {
				for i := tl.X0; i < tl.X1; i++ {
					cell := float64((k*997+j)*nx + i + 1)
					acc[0] += 1.0 / cell
					acc[1] += cell / (cell + 1)
				}
			}
		}
	}
}

func TestForTilesReduceNMatchesForReduceN(t *testing.T) {
	// The box API must reproduce ForReduceN's bands and fold bit for bit
	// along the outermost axis: Y in 2D, Z in 3D.
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers).WithGrain(1)
		nx, ny, nz := 41, 29, 9
		legacy := p.ForReduceN(2, 0, ny, func(lo, hi int, acc []float64) {
			tileHarmonic(nx)(Tile{X0: 0, X1: nx, Y0: lo, Y1: hi, Z0: 0, Z1: 1}, acc)
		})
		viaTiles := p.ForTilesReduceN(2, Box2D(0, nx, 0, ny), tileHarmonic(nx))
		if legacy[0] != viaTiles[0] || legacy[1] != viaTiles[1] {
			t.Fatalf("workers=%d 2D: tile path %v != ForReduceN %v", workers, viaTiles, legacy)
		}
		legacy = p.ForReduceN(2, 0, nz, func(lo, hi int, acc []float64) {
			tileHarmonic(nx)(Tile{X0: 0, X1: nx, Y0: 0, Y1: ny, Z0: lo, Z1: hi}, acc)
		})
		viaTiles = p.ForTilesReduceN(2, Box3D(0, nx, 0, ny, 0, nz), tileHarmonic(nx))
		if legacy[0] != viaTiles[0] || legacy[1] != viaTiles[1] {
			t.Fatalf("workers=%d 3D: tile path %v != ForReduceN %v", workers, viaTiles, legacy)
		}
		p.Close()
	}
}

func TestForTilesReduceNMatchesForReduceNQuick(t *testing.T) {
	// quick-check over random box extents, origins and worker counts.
	f := func(sx, sy, oy, w uint8) bool {
		nx, ny, y0 := int(sx%60)+1, int(sy%60)+1, int(oy%7)-3
		p := NewPool(int(w%6) + 1).WithGrain(1)
		defer p.Close()
		a := p.ForReduceN(2, y0, y0+ny, func(lo, hi int, acc []float64) {
			tileHarmonic(nx)(Tile{X0: 0, X1: nx, Y0: lo, Y1: hi, Z0: 0, Z1: 1}, acc)
		})
		b := p.ForTilesReduceN(2, Box2D(0, nx, y0, y0+ny), tileHarmonic(nx))
		return a[0] == b[0] && a[1] == b[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForTilesMatchesFor(t *testing.T) {
	// ForTiles bands exactly like For along the outer axis.
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers).WithGrain(1)
		ny := 57
		var forBands, tileBands [][2]int
		bandsCh := make(chan [2]int, ny)
		p.For(0, ny, func(lo, hi int) { bandsCh <- [2]int{lo, hi} })
		close(bandsCh)
		for b := range bandsCh {
			forBands = append(forBands, b)
		}
		bandsCh2 := make(chan [2]int, ny)
		p.ForTiles(Box2D(0, 13, 0, ny), func(tl Tile) { bandsCh2 <- [2]int{tl.Y0, tl.Y1} })
		close(bandsCh2)
		for b := range bandsCh2 {
			tileBands = append(tileBands, b)
		}
		p.Close()
		if len(forBands) != len(tileBands) {
			t.Fatalf("workers=%d: %d For bands vs %d tile bands", workers, len(forBands), len(tileBands))
		}
		// Compare as sets (concurrent send order is arbitrary).
		seen := map[[2]int]int{}
		for _, b := range forBands {
			seen[b]++
		}
		for _, b := range tileBands {
			seen[b]--
		}
		for b, c := range seen {
			if c != 0 {
				t.Fatalf("workers=%d: band %v mismatch (count %d)", workers, b, c)
			}
		}
	}
}

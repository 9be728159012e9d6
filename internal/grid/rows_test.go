package grid

import (
	"fmt"
	"sync"
	"testing"

	"tealeaf/internal/par"
)

// cell is one visited cell: its flat index and the band that visited it.
type cell struct{ idx, band int }

// walk visits every cell of w the way the kernels do — the pool splits
// the outer index into bands, each band walks its rows k outer, j inner
// — and returns the visits with the bands' outer ranges (band i is
// bands[i]).
func walk(pool *par.Pool, w Rows) (visits []cell, bands [][2]int) {
	if w.Empty() {
		return nil, nil
	}
	var mu sync.Mutex
	pool.For(w.K0, w.K1, func(k0, k1 int) {
		var local []int
		for k := k0; k < k1; k++ {
			for j := w.J0; j < w.J1; j++ {
				o := w.Off(j, k)
				for i := 0; i < w.N(); i++ {
					local = append(local, o+i)
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for _, idx := range local {
			visits = append(visits, cell{idx, len(bands)})
		}
		bands = append(bands, [2]int{k0, k1})
	})
	return visits, bands
}

func walkerPools() map[string]*par.Pool {
	return map[string]*par.Pool{
		"w1": par.NewPool(1),
		"w2": par.NewPool(2).WithGrain(1),
		"w4": par.NewPool(4).WithGrain(1),
	}
}

// TestRows2DVisitsEveryRowOnce: a 2D walker visits every cell of its box
// exactly once and nothing else, and every band is a run of whole rows
// of y — the split falls on Y.
func TestRows2DVisitsEveryRowOnce(t *testing.T) {
	g := UnitGrid2D(13, 9, 2)
	in := g.Interior()
	for pname, pool := range walkerPools() {
		defer pool.Close()
		for _, b := range []Bounds{in, in.Expand(2, g), {X0: 3, X1: 10, Y0: -1, Y1: 4}, {X0: 5, X1: 6, Y0: 8, Y1: 9}} {
			label := fmt.Sprintf("%s %v", pname, b)
			w := g.Rows(b)
			if w.K0 != b.Y0 || w.K1 != b.Y1 || w.J1-w.J0 != 1 || w.N() != b.X1-b.X0 {
				t.Fatalf("%s: walker %+v is not one row per y", label, w)
			}
			visits, bands := walk(pool, w)
			seen := map[int]int{}
			for _, v := range visits {
				seen[v.idx]++
				x, y := g.Coords(v.idx)
				if !b.Contains(x, y) {
					t.Fatalf("%s: visited (%d,%d) outside the box", label, x, y)
				}
				if kb := bands[v.band]; y < kb[0] || y >= kb[1] {
					t.Fatalf("%s: band %v visited row y=%d", label, kb, y)
				}
			}
			for y := b.Y0; y < b.Y1; y++ {
				for x := b.X0; x < b.X1; x++ {
					if n := seen[g.Index(x, y)]; n != 1 {
						t.Fatalf("%s: cell (%d,%d) visited %d times", label, x, y, n)
					}
				}
			}
		}
	}
}

// TestRows3DVisitsEveryRowOnce: a 3D walker visits every cell of its box
// exactly once, row (j, k) is row y = j of plane z = k, and every band is
// a run of whole z-planes — the split falls on Z, also for a box one
// plane deep.
func TestRows3DVisitsEveryRowOnce(t *testing.T) {
	g := UnitGrid3D(7, 5, 6, 2)
	in := g.Interior()
	boxes := []Bounds3D{
		in,
		in.Expand(2, g),
		{X0: 1, X1: 6, Y0: -1, Y1: 3, Z0: 2, Z1: 5},
		{X0: 0, X1: 7, Y0: 0, Y1: 5, Z0: 4, Z1: 5}, // one plane
	}
	for pname, pool := range walkerPools() {
		defer pool.Close()
		for _, b := range boxes {
			label := fmt.Sprintf("%s %v", pname, b)
			w := g.Rows(b)
			if w.K0 != b.Z0 || w.K1 != b.Z1 || w.J0 != b.Y0 || w.J1 != b.Y1 || w.N() != b.X1-b.X0 {
				t.Fatalf("%s: walker %+v is not y rows of z planes", label, w)
			}
			for k := b.Z0; k < b.Z1; k++ {
				for j := b.Y0; j < b.Y1; j++ {
					if w.Off(j, k) != g.Index(b.X0, j, k) {
						t.Fatalf("%s: row (%d,%d) starts at %d, want %d", label, j, k, w.Off(j, k), g.Index(b.X0, j, k))
					}
				}
			}
			visits, bands := walk(pool, w)
			if b.Z1-b.Z0 == 1 && len(bands) != 1 {
				t.Errorf("%s: a one-plane box split into %d bands", label, len(bands))
			}
			seen := map[int]int{}
			planes := map[int]int{}                      // z → band
			plane := g.Index(0, 0, 1) - g.Index(0, 0, 0) // storage is whole padded planes from index 0
			for _, v := range visits {
				seen[v.idx]++
				z := v.idx/plane - g.Halo
				if kb := bands[v.band]; z < kb[0] || z >= kb[1] {
					t.Fatalf("%s: band %v visited plane z=%d", label, kb, z)
				}
				if prev, ok := planes[z]; ok && prev != v.band {
					t.Fatalf("%s: plane z=%d split between bands %d and %d", label, z, prev, v.band)
				}
				planes[z] = v.band
			}
			for k := b.Z0; k < b.Z1; k++ {
				for j := b.Y0; j < b.Y1; j++ {
					for i := b.X0; i < b.X1; i++ {
						if n := seen[g.Index(i, j, k)]; n != 1 {
							t.Fatalf("%s: cell (%d,%d,%d) visited %d times", label, i, j, k, n)
						}
					}
				}
			}
			if len(seen) != b.Cells() {
				t.Fatalf("%s: visited %d cells, box has %d", label, len(seen), b.Cells())
			}
		}
	}
}

// TestRowsEmpty: a box with no columns, rows or planes is an empty walker
// and visits nothing.
func TestRowsEmpty(t *testing.T) {
	g, g3 := UnitGrid2D(6, 6, 1), UnitGrid3D(4, 4, 4, 1)
	walkers := []Rows{
		g.Rows(Bounds{X0: 3, X1: 3, Y0: 0, Y1: 6}),
		g.Rows(Bounds{X0: 0, X1: 6, Y0: 4, Y1: 2}),
		g3.Rows(Bounds3D{X0: 0, X1: 4, Y0: 2, Y1: 2, Z0: 0, Z1: 4}),
		g3.Rows(Bounds3D{X0: 0, X1: 4, Y0: 0, Y1: 4, Z0: 1, Z1: 1}),
	}
	pool := par.NewPool(2).WithGrain(1)
	defer pool.Close()
	for _, w := range walkers {
		if !w.Empty() {
			t.Errorf("walker %+v not empty", w)
		}
		if visits, _ := walk(pool, w); len(visits) != 0 {
			t.Errorf("empty walker %+v visited %d cells", w, len(visits))
		}
	}
}

package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The halo reflections are written with row copies and direct index
// arithmetic; their oracle is the per-cell Set/At form they replaced,
// kept here. Every halo cell must match bitwise, for every depth up to
// the halo and every subset of sides, on grids wider than the halo and
// on grids thinner than it (where a mirror reads a halo cell written a
// step before, so the order of the writes matters).

func reflectSides2DPerCell(f *Field2D, depth int, left, right, down, up bool, k0, k1 int) {
	g := f.Grid
	depth = min(depth, g.Halo)
	if k0 < 0 {
		k0, k1 = -depth, g.NY+depth
	}
	for k := k0; k < k1; k++ {
		for d := 1; d <= depth; d++ {
			if left {
				f.Set(-d, k, f.At(d-1, k))
			}
			if right {
				f.Set(g.NX-1+d, k, f.At(g.NX-d, k))
			}
		}
	}
	for d := 1; d <= depth; d++ {
		for j := -depth; j < g.NX+depth; j++ {
			if down {
				f.Set(j, -d, f.At(j, d-1))
			}
			if up {
				f.Set(j, g.NY-1+d, f.At(j, g.NY-d))
			}
		}
	}
}

func reflectSides3DPerCell(f *Field3D, depth int, s [6]bool) {
	g := f.Grid
	depth = min(depth, g.Halo)
	if s[0] || s[1] {
		for k := -depth; k < g.NZ+depth; k++ {
			for j := -depth; j < g.NY+depth; j++ {
				for d := 1; d <= depth; d++ {
					if s[0] {
						f.Set(-d, j, k, f.At(d-1, j, k))
					}
					if s[1] {
						f.Set(g.NX-1+d, j, k, f.At(g.NX-d, j, k))
					}
				}
			}
		}
	}
	if s[2] || s[3] {
		for k := -depth; k < g.NZ+depth; k++ {
			for d := 1; d <= depth; d++ {
				for i := -depth; i < g.NX+depth; i++ {
					if s[2] {
						f.Set(i, -d, k, f.At(i, d-1, k))
					}
					if s[3] {
						f.Set(i, g.NY-1+d, k, f.At(i, g.NY-d, k))
					}
				}
			}
		}
	}
	if s[4] || s[5] {
		for d := 1; d <= depth; d++ {
			for j := -depth; j < g.NY+depth; j++ {
				for i := -depth; i < g.NX+depth; i++ {
					if s[4] {
						f.Set(i, j, -d, f.At(i, j, d-1))
					}
					if s[5] {
						f.Set(i, j, g.NZ-1+d, f.At(i, j, g.NZ-d))
					}
				}
			}
		}
	}
}

func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestReflectHalosMatchPerCellForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][3]int{{7, 5, 3}, {2, 1, 3}, {1, 4, 2}} {
		g := UnitGrid2D(shape[0], shape[1], shape[2])
		src := NewField2D(g)
		for i := range src.Data {
			src.Data[i] = rng.Float64()
		}
		for depth := 1; depth <= g.Halo; depth++ {
			got, want := src.Clone(), src.Clone()
			got.ReflectHalos(depth)
			reflectSides2DPerCell(want, depth, true, true, true, true, 0, g.NY)
			if i := firstBitDiff(got.Data, want.Data); i >= 0 {
				t.Errorf("%v depth %d: ReflectHalos differs at flat index %d", shape, depth, i)
			}
			for m := 0; m < 16; m++ {
				s := [4]bool{m&1 != 0, m&2 != 0, m&4 != 0, m&8 != 0}
				got, want := src.Clone(), src.Clone()
				got.ReflectHalosSides(depth, s[0], s[1], s[2], s[3])
				reflectSides2DPerCell(want, depth, s[0], s[1], s[2], s[3], -1, 0)
				if i := firstBitDiff(got.Data, want.Data); i >= 0 {
					t.Errorf("%v depth %d sides %v: ReflectHalosSides differs at flat index %d", shape, depth, s, i)
				}
			}
		}
	}
	for _, shape := range [][4]int{{6, 5, 4, 3}, {2, 1, 3, 3}} {
		g := UnitGrid3D(shape[0], shape[1], shape[2], shape[3])
		src := NewField3D(g)
		for i := range src.Data {
			src.Data[i] = rng.Float64()
		}
		for depth := 1; depth <= g.Halo; depth++ {
			for m := 0; m < 64; m++ {
				var s [6]bool
				for a := range s {
					s[a] = m&(1<<a) != 0
				}
				got, want := src.Clone(), src.Clone()
				got.ReflectHalosSides(depth, s[0], s[1], s[2], s[3], s[4], s[5])
				reflectSides3DPerCell(want, depth, s)
				if i := firstBitDiff(got.Data, want.Data); i >= 0 {
					t.Errorf("%v depth %d sides %s: ReflectHalosSides differs at flat index %d", shape, depth, fmt.Sprint(s), i)
				}
			}
		}
	}
}

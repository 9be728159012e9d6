package solver

import (
	"fmt"
	"slices"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// maskComm is a single-rank communicator that reports a chosen set of
// rank neighbours: bit i of mask set means side i (left, right, down,
// up, back, front) has one, so it is not physical.
type maskComm struct {
	*comm.Serial
	mask int
}

func (c maskComm) side(i int) bool { return c.mask&(1<<i) == 0 }

func (c maskComm) Physical() comm.PhysicalSides {
	return comm.PhysicalSides{Left: c.side(0), Right: c.side(1), Down: c.side(2), Up: c.side(3)}
}

func (c maskComm) Physical3D() comm.PhysicalSides3D {
	return comm.PhysicalSides3D{Left: c.side(0), Right: c.side(1), Down: c.side(2), Up: c.side(3), Back: c.side(4), Front: c.side(5)}
}

// shrink moves a bounds interval [lo, hi) one cell toward the interior's
// [ilo, ihi) on each end outside it, never past it.
func shrink(lo, hi, ilo, ihi int) (int, int) {
	if lo < ilo {
		lo = min(lo+1, ilo)
	}
	if hi > ihi {
		hi = max(hi-1, ihi)
	}
	return lo, hi
}

// walk2D is the oracle for system.Powers: the block as a stateful
// walker computes it. A refill after a depth-d exchange grows the
// interior d−1 cells into every neighbour side; each application takes
// the current bounds and shrinks them one cell toward the interior; the
// walk is exhausted after d applications.
func walk2D(g *grid.Grid2D, depth int, c maskComm) []grid.Bounds {
	in := g.Interior()
	ext := func(i int) int {
		if c.side(i) {
			return 0
		}
		return depth - 1
	}
	cur := in.ExpandSides(ext(0), ext(1), ext(2), ext(3), g)
	var bs []grid.Bounds
	for range depth {
		bs = append(bs, cur)
		cur.X0, cur.X1 = shrink(cur.X0, cur.X1, in.X0, in.X1)
		cur.Y0, cur.Y1 = shrink(cur.Y0, cur.Y1, in.Y0, in.Y1)
	}
	return bs
}

// walk3D is walk2D on boxes.
func walk3D(g *grid.Grid3D, depth int, c maskComm) []grid.Bounds3D {
	in := g.Interior()
	ext := func(i int) int {
		if c.side(i) {
			return 0
		}
		return depth - 1
	}
	cur := in.ExpandSides(ext(0), ext(1), ext(2), ext(3), ext(4), ext(5), g)
	var bs []grid.Bounds3D
	for range depth {
		bs = append(bs, cur)
		cur.X0, cur.X1 = shrink(cur.X0, cur.X1, in.X0, in.X1)
		cur.Y0, cur.Y1 = shrink(cur.Y0, cur.Y1, in.Y0, in.Y1)
		cur.Z0, cur.Z1 = shrink(cur.Z0, cur.Z1, in.Z0, in.Z1)
	}
	return bs
}

// checkBlock asserts what holds of every matrix-powers block whatever
// the walk: one bounds per step, the physical sides (lo/hi edges of each
// axis, in side order) at the interior's, the neighbour sides d−1−j cells
// out at step j, and every step and the cell its stencil reads beyond it
// inside the padded region.
func checkBlock(t *testing.T, label string, depth, halo int, c maskComm, edges func(j int) []int, interior []int) {
	t.Helper()
	for j := range depth {
		got := edges(j)
		for i, v := range got {
			out := v - interior[i] // lower edges (even i) grow down
			if i%2 == 0 {
				out = -out
			}
			want := depth - 1 - j
			if c.side(i) {
				want = 0
			}
			if out != want {
				t.Fatalf("%s: step %d side %d reaches %d cells out, want %d", label, j, i, out, want)
			}
			if out+1 > halo {
				t.Fatalf("%s: step %d side %d leaves the padded region", label, j, i)
			}
		}
	}
}

func TestPowersMatchesWalk2D(t *testing.T) {
	for _, m := range [][3]int{{9, 2, 4}, {2, 2, 4}, {10, 10, 3}, {1, 7, 2}} {
		g := grid.UnitGrid2D(m[0], m[1], m[2])
		op := &stencil.Operator2D{Grid: g}
		for depth := 1; depth <= g.Halo; depth++ {
			for mask := range 16 {
				c := maskComm{comm.NewSerial(), mask}
				s := &sys2d{op: op, c: c}
				label := fmt.Sprintf("%dx%d halo %d depth %d mask %04b", m[0], m[1], m[2], depth, mask)
				got, want := s.Powers(depth), walk2D(g, depth, c)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Powers %v, walk %v", label, got, want)
				}
				if got[depth-1] != g.Interior() {
					t.Fatalf("%s: last step %v, want the interior", label, got[depth-1])
				}
				checkBlock(t, label, depth, g.Halo, c, func(j int) []int {
					b := got[j]
					return []int{b.X0, b.X1, b.Y0, b.Y1}
				}, []int{0, g.NX, 0, g.NY})
			}
		}
	}
}

func TestPowersMatchesWalk3D(t *testing.T) {
	for _, m := range [][4]int{{2, 2, 7, 4}, {8, 8, 8, 3}, {3, 1, 2, 2}} {
		g := grid.UnitGrid3D(m[0], m[1], m[2], m[3])
		op := &stencil.Operator3D{Grid: g}
		for depth := 1; depth <= g.Halo; depth++ {
			for mask := range 64 {
				c := maskComm{comm.NewSerial(), mask}
				s := &sys3d{op: op, c: c}
				label := fmt.Sprintf("%dx%dx%d halo %d depth %d mask %06b", m[0], m[1], m[2], m[3], depth, mask)
				got, want := s.Powers(depth), walk3D(g, depth, c)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Powers %v, walk %v", label, got, want)
				}
				if got[depth-1] != g.Interior() {
					t.Fatalf("%s: last step %v, want the interior", label, got[depth-1])
				}
				checkBlock(t, label, depth, g.Halo, c, func(j int) []int {
					b := got[j]
					return []int{b.X0, b.X1, b.Y0, b.Y1, b.Z0, b.Z1}
				}, []int{0, g.NX, 0, g.NY, 0, g.NZ})
			}
		}
	}
}

// powers2D and powers3D build the block of a single-rank system whose
// neighbour sides are the set bits of mask.
func powers2D(g *grid.Grid2D, mask, depth int) []grid.Bounds {
	return (&sys2d{op: &stencil.Operator2D{Grid: g}, c: maskComm{comm.NewSerial(), mask}}).Powers(depth)
}

func powers3D(g *grid.Grid3D, mask, depth int) []grid.Bounds3D {
	return (&sys3d{op: &stencil.Operator3D{Grid: g}, c: maskComm{comm.NewSerial(), mask}}).Powers(depth)
}

// redundantCells is the work a block does beyond its steps on the
// interior: Σ cells(block[j]) − d·interior.
func redundantCells[B interface{ Cells() int }](block []B, interior int) int {
	n := -len(block) * interior
	for _, b := range block {
		n += b.Cells()
	}
	return n
}

func TestPowersBoundsSequenceAllNeighbors(t *testing.T) {
	g := grid.UnitGrid2D(10, 10, 4)
	want := []grid.Bounds{{X0: -2, X1: 12, Y0: -2, Y1: 12}, {X0: -1, X1: 11, Y0: -1, Y1: 11}, {X0: 0, X1: 10, Y0: 0, Y1: 10}}
	if got := powers2D(g, 0b1111, 3); !slices.Equal(got, want) {
		t.Errorf("all neighbours, depth 3: %v, want %v", got, want)
	}
	// Every block of a solve runs the same list: a second build equals the first.
	if got := powers2D(g, 0b1111, 3); !slices.Equal(got, want) {
		t.Errorf("second build: %v, want %v", got, want)
	}
}

func TestPowersPhysicalSidesNotExtended(t *testing.T) {
	// Corner rank: neighbours only on the right and up.
	b := powers2D(grid.UnitGrid2D(8, 8, 4), 0b1010, 4)
	if b[0].X0 != 0 || b[0].Y0 != 0 {
		t.Errorf("physical sides must not extend: %v", b[0])
	}
	if b[0].X1 != 11 || b[0].Y1 != 11 {
		t.Errorf("neighbour sides must extend by depth-1: %v", b[0])
	}
	// Shrink only on extended sides.
	if b[1] != (grid.Bounds{X0: 0, X1: 10, Y0: 0, Y1: 10}) {
		t.Errorf("second step: %v", b[1])
	}
}

func TestPowersDepth1EqualsInterior(t *testing.T) {
	g := grid.UnitGrid2D(8, 8, 2)
	if got := powers2D(g, 0b1111, 1); !slices.Equal(got, []grid.Bounds{g.Interior()}) {
		t.Errorf("2D depth-1 block = %v, want one step on the interior", got)
	}
	g3 := grid.UnitGrid3D(6, 6, 6, 2)
	if got := powers3D(g3, 0b111111, 1); !slices.Equal(got, []grid.Bounds3D{g3.Interior()}) {
		t.Errorf("3D depth-1 block = %v, want one step on the interior", got)
	}
}

func TestPowersSingleRank(t *testing.T) {
	// No neighbours at all: bounds never extend, but the block still has
	// one step per depth (serial case — reflection stands in for fresh
	// data so each step is valid on the interior).
	g := grid.UnitGrid2D(8, 8, 4)
	for depth := 1; depth <= g.Halo; depth++ {
		b := powers2D(g, 0, depth)
		if len(b) != depth {
			t.Fatalf("depth %d: %d steps", depth, len(b))
		}
		for j, s := range b {
			if s != g.Interior() {
				t.Fatalf("depth %d step %d: %v, want the interior", depth, j, s)
			}
		}
	}
	g3 := grid.UnitGrid3D(5, 4, 3, 3)
	for depth := 1; depth <= g3.Halo; depth++ {
		b := powers3D(g3, 0, depth)
		if len(b) != depth {
			t.Fatalf("3D depth %d: %d steps", depth, len(b))
		}
		for j, s := range b {
			if s != g3.Interior() {
				t.Fatalf("3D depth %d step %d: %v, want the interior", depth, j, s)
			}
		}
	}
}

func TestPowersRedundantCells(t *testing.T) {
	g := grid.UnitGrid2D(10, 10, 4)
	in := g.Interior().Cells()
	// All neighbours, depth 3: extensions 2,1,0 →
	// (14² - 100) + (12² - 100) + 0 = 96 + 44 = 140.
	if got := redundantCells(powers2D(g, 0b1111, 3), in); got != 140 {
		t.Errorf("redundant cells = %d, want 140", got)
	}
	// Depth 1: no redundancy.
	if got := redundantCells(powers2D(g, 0b1111, 1), in); got != 0 {
		t.Errorf("depth-1 redundant cells = %d, want 0", got)
	}
	// No neighbours: no redundancy regardless of depth.
	if got := redundantCells(powers2D(g, 0, 4), in); got != 0 {
		t.Errorf("no-neighbour redundant cells = %d, want 0", got)
	}
}

func TestPowersRedundantCellsGrowsWithDepth(t *testing.T) {
	g := grid.UnitGrid2D(32, 32, 16)
	prev := -1
	for d := 1; d <= g.Halo; d++ {
		rc := redundantCells(powers2D(g, 0b1111, d), g.Interior().Cells())
		if rc <= prev && d > 1 {
			t.Errorf("depth %d: redundant cells %d not increasing (prev %d)", d, rc, prev)
		}
		prev = rc
	}
}

func TestPowers3DShrinksPerStep(t *testing.T) {
	g := grid.UnitGrid3D(8, 8, 8, 3)
	want := []grid.Bounds3D{
		{X0: -2, X1: 10, Y0: -2, Y1: 10, Z0: -2, Z1: 10},
		{X0: -1, X1: 9, Y0: -1, Y1: 9, Z0: -1, Z1: 9},
		{X0: 0, X1: 8, Y0: 0, Y1: 8, Z0: 0, Z1: 8},
	}
	if got := powers3D(g, 0b111111, 3); !slices.Equal(got, want) {
		t.Errorf("all neighbours, depth 3: %v, want %v", got, want)
	}
}

func TestPowers3DPhysicalSidesDoNotExtend(t *testing.T) {
	g := grid.UnitGrid3D(8, 8, 8, 2)
	// Only the front face has a neighbour.
	want := []grid.Bounds3D{{X0: 0, X1: 8, Y0: 0, Y1: 8, Z0: 0, Z1: 9}, g.Interior()}
	if got := powers3D(g, 0b100000, 2); !slices.Equal(got, want) {
		t.Errorf("front neighbour, depth 2: %v, want %v", got, want)
	}
}

func TestPowers3DRedundantCells(t *testing.T) {
	g := grid.UnitGrid3D(8, 8, 8, 2)
	// Depth 2: one step on 10³, one on 8³ → redundant = 10³ − 8³.
	if got, want := redundantCells(powers3D(g, 0b111111, 2), 512), 1000-512; got != want {
		t.Errorf("redundant cells = %d, want %d", got, want)
	}
	if got := redundantCells(powers3D(g, 0, 1), 512); got != 0 {
		t.Errorf("depth 1 with no neighbours has %d redundant cells, want 0", got)
	}
}

// TestPPCGShortBlockMatvecCells: with depth 4 and InnerSteps 10 every
// inner solve runs blocks of 4, 4 and 2 steps, and the short block runs
// on the block's last two bounds, the least extended (its last step on
// the interior). So on each of two hub ranks the matvec cells are the
// outer matvecs over the interior plus, per inner solve,
// Σ cells(block[d−n+j]) over the three blocks.
func TestPPCGShortBlockMatvecCells(t *testing.T) {
	const nx, ny, depth, inner = 24, 20, 4, 10
	part := grid.MustPartition(nx, ny, 2, 1)
	gg := grid.UnitGrid2D(nx, ny, depth)
	denAt, rhsAt := stepFields(nx, ny, 1, 7)
	err := comm.Run(part, func(c *comm.RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		den, rhs := grid.NewField2D(sub), grid.NewField2D(sub)
		for j := 0; j < sub.NY; j++ {
			for i := 0; i < sub.NX; i++ {
				den.Set(i, j, denAt(ext.X0+i, ext.Y0+j, 0))
				rhs.Set(i, j, rhsAt(ext.X0+i, ext.Y0+j, 0))
			}
		}
		if err := c.Exchange(depth, den); err != nil {
			return err
		}
		ph := c.Physical()
		op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides{Left: ph.Left, Right: ph.Right, Down: ph.Down, Up: ph.Up})
		if err != nil {
			return err
		}
		res, err := SolvePPCG(Problem{Op: op, U: rhs.Clone(), RHS: rhs},
			Options{Tol: 1e-10, Comm: c, InnerSteps: inner, HaloDepth: depth})
		if err != nil {
			return err
		}
		if res.TotalInner == 0 || res.TotalInner%inner != 0 {
			return fmt.Errorf("rank %d: %d inner steps, want a positive multiple of %d", c.Rank(), res.TotalInner, inner)
		}
		mask := 1 << grid.Right // rank 0's neighbour is on its right
		if c.Rank() == 1 {
			mask = 1 << grid.Left
		}
		block := walk2D(sub, depth, maskComm{mask: mask})
		var perSolve int64
		for _, n := range []int{4, 4, 2} {
			for _, b := range block[depth-n:] {
				perSolve += int64(b.Cells())
			}
		}
		tr := c.Trace()
		outer := int64(tr.Matvecs - res.TotalInner)
		want := outer*int64(sub.NX*sub.NY) + int64(res.TotalInner/inner)*perSolve
		if tr.MatvecCells != want {
			t.Errorf("rank %d: %d matvec cells, want %d (%d outer matvecs, %d inner solves of %d cells)",
				c.Rank(), tr.MatvecCells, want, outer, res.TotalInner/inner, perSolve)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

package grid

import (
	"testing"
	"testing/quick"
)

func TestPartitionValidation(t *testing.T) {
	if _, err := NewPartition(0, 4, 1, 1); err == nil {
		t.Error("zero nx must error")
	}
	if _, err := NewPartition(4, 4, 5, 1); err == nil {
		t.Error("more rank-columns than cells must error")
	}
	if _, err := NewPartition(4, 4, 0, 2); err == nil {
		t.Error("zero px must error")
	}
	if _, err := NewPartition(16, 16, 4, 4); err != nil {
		t.Errorf("valid partition errored: %v", err)
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	for _, c := range []struct{ nx, ny, px, py int }{
		{16, 16, 4, 4}, {17, 13, 3, 5}, {100, 1, 7, 1}, {5, 5, 5, 5}, {4000, 4000, 64, 32},
	} {
		p := MustPartition(c.nx, c.ny, c.px, c.py)
		total := 0
		for r := 0; r < p.Ranks(); r++ {
			e := p.ExtentOf(r)
			if e.NX() <= 0 || e.NY() <= 0 {
				t.Fatalf("%v rank %d has empty extent %v", p, r, e)
			}
			total += e.Cells()
		}
		if total != c.nx*c.ny {
			t.Errorf("%v covers %d cells, want %d", p, total, c.nx*c.ny)
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	p := MustPartition(17, 13, 3, 5)
	minC, maxC := 1<<30, 0
	for r := 0; r < p.Ranks(); r++ {
		e := p.ExtentOf(r)
		// Per-dimension extents must differ by at most one cell.
		if w := e.NX(); w < 17/3 || w > 17/3+1 {
			t.Errorf("rank %d width %d unbalanced", r, w)
		}
		if h := e.NY(); h < 13/5 || h > 13/5+1 {
			t.Errorf("rank %d height %d unbalanced", r, h)
		}
		c := e.Cells()
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC-minC > maxC/2 {
		t.Errorf("cell imbalance too large: %d..%d", minC, maxC)
	}
}

func TestPartitionNeighbors(t *testing.T) {
	p := MustPartition(12, 12, 3, 2)
	// Layout: ranks 0 1 2 / 3 4 5 (row-major, rank = cy*PX + cx).
	if n := p.Neighbor(0, Left); n != -1 {
		t.Errorf("rank 0 left = %d, want -1 (boundary)", n)
	}
	if n := p.Neighbor(0, Right); n != 1 {
		t.Errorf("rank 0 right = %d, want 1", n)
	}
	if n := p.Neighbor(0, Up); n != 3 {
		t.Errorf("rank 0 up = %d, want 3", n)
	}
	if n := p.Neighbor(4, Down); n != 1 {
		t.Errorf("rank 4 down = %d, want 1", n)
	}
	if n := p.Neighbor(5, Right); n != -1 {
		t.Errorf("rank 5 right = %d, want -1", n)
	}
	if p.Neighbor(2, Right) != -1 || p.Neighbor(1, Right) == -1 {
		t.Error("boundary neighbours wrong")
	}
}

func TestPartitionNeighborSymmetry(t *testing.T) {
	p := MustPartition(24, 18, 4, 3)
	for r := 0; r < p.Ranks(); r++ {
		for s := Left; s < NumSides; s++ {
			n := p.Neighbor(r, s)
			if n == -1 {
				continue
			}
			if back := p.Neighbor(n, s.Opposite()); back != r {
				t.Errorf("neighbor symmetry broken: %d --%v--> %d --%v--> %d", r, s, n, s.Opposite(), back)
			}
		}
	}
}

// TestPartitionAxisOwners: the per-axis lookups name, for every cell,
// the rank whose extent holds it.
func TestPartitionAxisOwners(t *testing.T) {
	p := MustPartition(17, 13, 3, 5)
	for k := 0; k < 13; k++ {
		for j := 0; j < 17; j++ {
			r := p.RankAt(p.ColumnOf(j), p.RowOf(k), 0)
			if r < 0 || r >= p.Ranks() {
				t.Fatalf("owner of (%d,%d) = %d out of range", j, k, r)
			}
			e := p.ExtentOf(r)
			if j < e.X0 || j >= e.X1 || k < e.Y0 || k >= e.Y1 {
				t.Fatalf("owner of (%d,%d) = %d whose extent %+v does not contain it", j, k, r, e)
			}
		}
	}
}

func TestPartitionOwnerQuick(t *testing.T) {
	p := MustPartition(101, 67, 7, 4)
	f := func(ju, ku uint) bool {
		j, k := int(ju%101), int(ku%67)
		e := p.ExtentOf(p.RankAt(p.ColumnOf(j), p.RowOf(k), 0))
		return j >= e.X0 && j < e.X1 && k >= e.Y0 && k < e.Y1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFactorNearSquare(t *testing.T) {
	cases := []struct {
		n, nx, ny      int
		wantPX, wantPY int
	}{
		{1, 100, 100, 1, 1},
		{4, 100, 100, 2, 2},
		{16, 4000, 4000, 4, 4},
		{2, 100, 100, 2, 1}, // prefers px >= py on square grids
		{8192, 4000, 4000, 128, 64},
	}
	for _, c := range cases {
		px, py := FactorNearSquare(c.n, c.nx, c.ny)
		if px*py != c.n {
			t.Errorf("FactorNearSquare(%d) = %dx%d does not multiply to n", c.n, px, py)
		}
		if px != c.wantPX || py != c.wantPY {
			t.Errorf("FactorNearSquare(%d,%d,%d) = %dx%d, want %dx%d",
				c.n, c.nx, c.ny, px, py, c.wantPX, c.wantPY)
		}
	}
	// Wide grids should prefer wide process grids.
	px, py := FactorNearSquare(8, 1000, 10)
	if px < py {
		t.Errorf("wide grid got %dx%d, want px >= py", px, py)
	}
}

func TestPartitionRankCoordsRoundTrip(t *testing.T) {
	p := MustPartition(40, 40, 5, 8)
	for r := 0; r < p.Ranks(); r++ {
		cx, cy, cz := p.CoordsOf(r)
		if cz != 0 || p.RankAt(cx, cy, cz) != r {
			t.Fatalf("RankAt(CoordsOf(%d)) != %d", r, r)
		}
	}
	if p.RankAt(-1, 0, 0) != -1 || p.RankAt(0, 8, 0) != -1 || p.RankAt(0, 0, 1) != -1 {
		t.Error("out-of-grid coords must map to -1")
	}
}

func TestPartition3DExtentsTile(t *testing.T) {
	p := MustPartition3D(10, 7, 5, 3, 2, 2)
	if p.Ranks() != 12 {
		t.Fatalf("ranks = %d", p.Ranks())
	}
	seen := make(map[[3]int]int)
	cells := 0
	for r := 0; r < p.Ranks(); r++ {
		e := p.ExtentOf(r)
		if e.NX() <= 0 || e.NY() <= 0 || e.NZ() <= 0 {
			t.Fatalf("rank %d: empty extent %+v", r, e)
		}
		cells += e.Cells()
		for k := e.Z0; k < e.Z1; k++ {
			for j := e.Y0; j < e.Y1; j++ {
				for i := e.X0; i < e.X1; i++ {
					seen[[3]int{i, j, k}]++
				}
			}
		}
	}
	if cells != 10*7*5 {
		t.Errorf("total cells = %d, want %d", cells, 10*7*5)
	}
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("cell %v owned %d times", c, n)
		}
	}
}

func TestPartition3DCoordsRoundTrip(t *testing.T) {
	p := MustPartition3D(8, 8, 8, 2, 2, 2)
	for r := 0; r < p.Ranks(); r++ {
		cx, cy, cz := p.CoordsOf(r)
		if got := p.RankAt(cx, cy, cz); got != r {
			t.Errorf("rank %d -> (%d,%d,%d) -> %d", r, cx, cy, cz, got)
		}
	}
	if p.RankAt(-1, 0, 0) != -1 || p.RankAt(0, 2, 0) != -1 || p.RankAt(0, 0, 2) != -1 {
		t.Error("out-of-grid coordinates must map to -1")
	}
}

func TestPartition3DNeighborsAndBoundary(t *testing.T) {
	p := MustPartition3D(6, 6, 6, 2, 2, 2)
	r := p.RankAt(0, 0, 0)
	if p.Neighbor(r, Left) != -1 || p.Neighbor(r, Down) != -1 || p.Neighbor(r, Back) != -1 {
		t.Error("corner rank must touch low boundaries")
	}
	if p.Neighbor(r, Right) == -1 || p.Neighbor(r, Up) == -1 || p.Neighbor(r, Front) == -1 {
		t.Error("corner rank must have high-side neighbours")
	}
	for _, s := range []Side{Left, Right, Down, Up, Back, Front} {
		n := p.Neighbor(r, s)
		if n < 0 {
			continue
		}
		if back := p.Neighbor(n, s.Opposite()); back != r {
			t.Errorf("side %v: neighbour %d's %v neighbour is %d, want %d", s, n, s.Opposite(), back, r)
		}
	}
}

func TestPartition3DValidation(t *testing.T) {
	if _, err := NewPartition3D(4, 4, 4, 5, 1, 1); err == nil {
		t.Error("more ranks than cells must error")
	}
	if _, err := NewPartition3D(0, 4, 4, 1, 1, 1); err == nil {
		t.Error("zero cells must error")
	}
}

// TestPartition2DIsOnePlaneQuick: over random shapes, NewPartition is
// NewPartition3D with nz = pz = 1 apart from Dims: the same extents, the
// same neighbours on all six sides and the same MinExtent.
func TestPartition2DIsOnePlaneQuick(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		nx, ny := 1+int(a%40), 1+int(b%40)
		px, py := 1+int(c)%nx, 1+int(d)%ny
		p2 := MustPartition(nx, ny, px, py)
		p3 := MustPartition3D(nx, ny, 1, px, py, 1)
		if p2.Dims() != 2 || p3.Dims() != 3 || p2.Ranks() != p3.Ranks() {
			return false
		}
		ax, ay, az := p2.MinExtent()
		bx, by, bz := p3.MinExtent()
		if ax != bx || ay != by || az != 1 || bz != 1 {
			return false
		}
		for r := range p2.Ranks() {
			if e := p2.ExtentOf(r); e != p3.ExtentOf(r) || e.Z0 != 0 || e.Z1 != 1 {
				return false
			}
			for s := Left; s < NumSides3D; s++ {
				if p2.Neighbor(r, s) != p3.Neighbor(r, s) {
					return false
				}
			}
			if p2.Neighbor(r, Back) != -1 || p2.Neighbor(r, Front) != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionOwnsEveryCellOnceQuick: over random 3D shapes, every cell
// lies in exactly one rank's extent, the per-axis lookups name that rank,
// and every neighbour link is answered across the opposite side.
func TestPartitionOwnsEveryCellOnceQuick(t *testing.T) {
	f := func(n, q [3]uint8) bool {
		var nn, pp [3]int
		for a := range 3 {
			nn[a] = 1 + int(n[a]%9)
			pp[a] = 1 + int(q[a])%nn[a]
		}
		p := MustPartition3D(nn[0], nn[1], nn[2], pp[0], pp[1], pp[2])
		owners := make([]int, nn[0]*nn[1]*nn[2])
		for r := range p.Ranks() {
			e := p.ExtentOf(r)
			for k := e.Z0; k < e.Z1; k++ {
				for j := e.Y0; j < e.Y1; j++ {
					for i := e.X0; i < e.X1; i++ {
						owners[(k*nn[1]+j)*nn[0]+i]++
						if p.RankAt(p.ColumnOf(i), p.RowOf(j), p.PlaneOf(k)) != r {
							return false
						}
					}
				}
			}
			for s := Left; s < NumSides3D; s++ {
				if nb := p.Neighbor(r, s); nb != -1 && p.Neighbor(nb, s.Opposite()) != r {
					return false
				}
			}
		}
		for _, c := range owners {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

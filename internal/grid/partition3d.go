package grid

import "fmt"

// The two z-direction sides of a 3D sub-domain, continuing the 2D Side
// enumeration (Left/Right/Down/Up keep their values, so 2D code is
// unaffected). Back faces -z, Front faces +z.
const (
	Back Side = NumSides + iota
	Front
	// NumSides3D is the side count of a 3D sub-domain.
	NumSides3D
)

// Extent3D is a rank's box of interior cells within the global 3D grid,
// given as half-open ranges.
type Extent3D struct {
	X0, X1, Y0, Y1, Z0, Z1 int
}

// NX returns the sub-domain extent in x.
func (e Extent3D) NX() int { return e.X1 - e.X0 }

// NY returns the sub-domain extent in y.
func (e Extent3D) NY() int { return e.Y1 - e.Y0 }

// NZ returns the sub-domain extent in z.
func (e Extent3D) NZ() int { return e.Z1 - e.Z0 }

// Cells returns the cell count of the extent.
func (e Extent3D) Cells() int { return e.NX() * e.NY() * e.NZ() }

// Partition3D is a PX × PY × PZ box decomposition of an NX × NY × NZ
// global grid — the 3D analogue of Partition. Rank r sits at
// (r mod PX, (r/PX) mod PY, r/(PX·PY)); remainder cells go one per
// low-index rank so extents differ by at most one cell per dimension.
type Partition3D struct {
	NX, NY, NZ int
	PX, PY, PZ int
	// xsplit[i] is the first global x-index owned by rank-column i;
	// xsplit[PX] == NX. Similarly ysplit, zsplit.
	xsplit, ysplit, zsplit []int
}

// NewPartition3D builds a partition of an nx × ny × nz grid over
// px × py × pz ranks. Every rank must receive at least one cell in each
// dimension.
func NewPartition3D(nx, ny, nz, px, py, pz int) (*Partition3D, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 || px <= 0 || py <= 0 || pz <= 0 {
		return nil, fmt.Errorf("grid: 3D partition dims must be positive (%dx%dx%d over %dx%dx%d)",
			nx, ny, nz, px, py, pz)
	}
	if px > nx || py > ny || pz > nz {
		return nil, fmt.Errorf("grid: more ranks than cells (%dx%dx%d over %dx%dx%d)",
			nx, ny, nz, px, py, pz)
	}
	return &Partition3D{
		NX: nx, NY: ny, NZ: nz, PX: px, PY: py, PZ: pz,
		xsplit: splits(nx, px), ysplit: splits(ny, py), zsplit: splits(nz, pz),
	}, nil
}

// MustPartition3D is NewPartition3D that panics on error.
func MustPartition3D(nx, ny, nz, px, py, pz int) *Partition3D {
	p, err := NewPartition3D(nx, ny, nz, px, py, pz)
	if err != nil {
		panic(err)
	}
	return p
}

// Ranks returns the total rank count PX·PY·PZ.
func (p *Partition3D) Ranks() int { return p.PX * p.PY * p.PZ }

// CoordsOf returns rank r's (cx, cy, cz) in the process grid.
func (p *Partition3D) CoordsOf(r int) (cx, cy, cz int) {
	return r % p.PX, (r / p.PX) % p.PY, r / (p.PX * p.PY)
}

// RankAt returns the rank at process-grid coordinates (cx, cy, cz), or -1
// if the coordinates fall outside the process grid.
func (p *Partition3D) RankAt(cx, cy, cz int) int {
	if cx < 0 || cx >= p.PX || cy < 0 || cy >= p.PY || cz < 0 || cz >= p.PZ {
		return -1
	}
	return (cz*p.PY+cy)*p.PX + cx
}

// ExtentOf returns the global cell box owned by rank r.
func (p *Partition3D) ExtentOf(r int) Extent3D {
	cx, cy, cz := p.CoordsOf(r)
	return Extent3D{
		X0: p.xsplit[cx], X1: p.xsplit[cx+1],
		Y0: p.ysplit[cy], Y1: p.ysplit[cy+1],
		Z0: p.zsplit[cz], Z1: p.zsplit[cz+1],
	}
}

// Neighbor returns the rank adjacent to r across side s, or -1 at the
// physical domain boundary.
func (p *Partition3D) Neighbor(r int, s Side) int {
	cx, cy, cz := p.CoordsOf(r)
	switch s {
	case Left:
		return p.RankAt(cx-1, cy, cz)
	case Right:
		return p.RankAt(cx+1, cy, cz)
	case Down:
		return p.RankAt(cx, cy-1, cz)
	case Up:
		return p.RankAt(cx, cy+1, cz)
	case Back:
		return p.RankAt(cx, cy, cz-1)
	case Front:
		return p.RankAt(cx, cy, cz+1)
	}
	panic(fmt.Sprintf("grid: invalid side %d", int(s)))
}

// ColumnOf returns the rank-column owning global x-index i (i must lie in
// [0, NX)); the 3D twin of Partition.ColumnOf.
func (p *Partition3D) ColumnOf(i int) int { return searchSplit(p.xsplit, i) }

// RowOf returns the rank-row owning global y-index j (j must lie in [0, NY)).
func (p *Partition3D) RowOf(j int) int { return searchSplit(p.ysplit, j) }

// PlaneOf returns the rank-plane owning global z-index k (k must lie in
// [0, NZ)).
func (p *Partition3D) PlaneOf(k int) int { return searchSplit(p.zsplit, k) }

// OnBoundary reports whether rank r's sub-domain touches the physical
// domain boundary on side s.
func (p *Partition3D) OnBoundary(r int, s Side) bool { return p.Neighbor(r, s) == -1 }

// MinExtent returns the smallest per-rank cell counts in each dimension
// (the floor division — identical on every rank, so collective
// validation against it cannot diverge across ranks).
func (p *Partition3D) MinExtent() (nx, ny, nz int) {
	return p.NX / p.PX, p.NY / p.PY, p.NZ / p.PZ
}

func (p *Partition3D) String() string {
	return fmt.Sprintf("Partition3D(%dx%dx%d cells over %dx%dx%d ranks)",
		p.NX, p.NY, p.NZ, p.PX, p.PY, p.PZ)
}

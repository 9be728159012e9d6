package grid

import (
	"fmt"
	"math"
)

// Side identifies one face of a rectangular sub-domain.
type Side int

// The four sides of a 2D sub-domain, in TeaLeaf's CHUNK_LEFT.. order.
const (
	Left Side = iota
	Right
	Down
	Up
	NumSides
)

// Opposite returns the facing side (Left<->Right, Down<->Up, Back<->Front).
func (s Side) Opposite() Side {
	switch s {
	case Left:
		return Right
	case Right:
		return Left
	case Down:
		return Up
	case Up:
		return Down
	case Back:
		return Front
	case Front:
		return Back
	}
	panic(fmt.Sprintf("grid: invalid side %d", int(s)))
}

func (s Side) String() string {
	switch s {
	case Left:
		return "left"
	case Right:
		return "right"
	case Down:
		return "down"
	case Up:
		return "up"
	case Back:
		return "back"
	case Front:
		return "front"
	}
	return fmt.Sprintf("side(%d)", int(s))
}

// The two z-direction sides of a 3D sub-domain, continuing the 2D Side
// enumeration (Left/Right/Down/Up keep their values, so 2D code is
// unaffected). Back faces -z, Front faces +z.
const (
	Back Side = NumSides + iota
	Front
	// NumSides3D is the side count of a 3D sub-domain.
	NumSides3D
)

// Extent is a rank's box of interior cells within the global grid, given
// as half-open ranges. A 2D extent is the one-plane case: Z0 = 0, Z1 = 1.
type Extent struct {
	X0, X1, Y0, Y1, Z0, Z1 int
}

// NX returns the sub-domain extent in x.
func (e Extent) NX() int { return e.X1 - e.X0 }

// NY returns the sub-domain extent in y.
func (e Extent) NY() int { return e.Y1 - e.Y0 }

// NZ returns the sub-domain extent in z: 1 in 2D.
func (e Extent) NZ() int { return e.Z1 - e.Z0 }

// Cells returns the cell count of the extent.
func (e Extent) Cells() int { return e.NX() * e.NY() * e.NZ() }

// Partition is a PX × PY × PZ box decomposition of an NX × NY × NZ global
// grid, mirroring TeaLeaf's chunk decomposition; a 2D partition is the
// NZ = PZ = 1 case. Rank r sits at (r mod PX, (r/PX) mod PY, r/(PX·PY));
// remainder cells go one per low-index rank so extents differ by at most
// one cell per dimension.
type Partition struct {
	NX, NY, NZ int
	PX, PY, PZ int
	dims       int
	// xsplit[i] is the first global x-index owned by rank-column i;
	// xsplit[PX] == NX. Similarly ysplit, zsplit.
	xsplit, ysplit, zsplit []int
}

// NewPartition builds a partition of an nx × ny grid over px × py ranks.
// Every rank must receive at least one cell in each dimension.
func NewPartition(nx, ny, px, py int) (*Partition, error) {
	if nx <= 0 || ny <= 0 || px <= 0 || py <= 0 {
		return nil, fmt.Errorf("grid: partition dims must be positive (%dx%d over %dx%d)", nx, ny, px, py)
	}
	if px > nx || py > ny {
		return nil, fmt.Errorf("grid: more ranks than cells (%dx%d over %dx%d)", nx, ny, px, py)
	}
	return newPartition(2, nx, ny, 1, px, py, 1), nil
}

// MustPartition is NewPartition that panics on error.
func MustPartition(nx, ny, px, py int) *Partition {
	p, err := NewPartition(nx, ny, px, py)
	if err != nil {
		panic(err)
	}
	return p
}

// NewPartition3D builds a partition of an nx × ny × nz grid over
// px × py × pz ranks. Every rank must receive at least one cell in each
// dimension.
func NewPartition3D(nx, ny, nz, px, py, pz int) (*Partition, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 || px <= 0 || py <= 0 || pz <= 0 {
		return nil, fmt.Errorf("grid: 3D partition dims must be positive (%dx%dx%d over %dx%dx%d)",
			nx, ny, nz, px, py, pz)
	}
	if px > nx || py > ny || pz > nz {
		return nil, fmt.Errorf("grid: more ranks than cells (%dx%dx%d over %dx%dx%d)",
			nx, ny, nz, px, py, pz)
	}
	return newPartition(3, nx, ny, nz, px, py, pz), nil
}

// MustPartition3D is NewPartition3D that panics on error.
func MustPartition3D(nx, ny, nz, px, py, pz int) *Partition {
	p, err := NewPartition3D(nx, ny, nz, px, py, pz)
	if err != nil {
		panic(err)
	}
	return p
}

func newPartition(dims, nx, ny, nz, px, py, pz int) *Partition {
	return &Partition{NX: nx, NY: ny, NZ: nz, PX: px, PY: py, PZ: pz, dims: dims,
		xsplit: splits(nx, px), ysplit: splits(ny, py), zsplit: splits(nz, pz)}
}

func splits(n, p int) []int {
	s := make([]int, p+1)
	q, r := n/p, n%p
	for i := 0; i <= p; i++ {
		// Low-index ranks take the remainder cells, one each.
		s[i] = i*q + min(i, r)
	}
	return s
}

// Dims returns the partition's dimensionality: 2 from NewPartition, 3
// from NewPartition3D.
func (p *Partition) Dims() int { return p.dims }

// Ranks returns the total rank count PX·PY·PZ.
func (p *Partition) Ranks() int { return p.PX * p.PY * p.PZ }

// CoordsOf returns rank r's (cx, cy, cz) in the process grid.
func (p *Partition) CoordsOf(r int) (cx, cy, cz int) {
	return r % p.PX, (r / p.PX) % p.PY, r / (p.PX * p.PY)
}

// RankAt returns the rank at process-grid coordinates (cx, cy, cz), or -1
// if the coordinates fall outside the process grid.
func (p *Partition) RankAt(cx, cy, cz int) int {
	if cx < 0 || cx >= p.PX || cy < 0 || cy >= p.PY || cz < 0 || cz >= p.PZ {
		return -1
	}
	return (cz*p.PY+cy)*p.PX + cx
}

// ExtentOf returns the global cell box owned by rank r.
func (p *Partition) ExtentOf(r int) Extent {
	cx, cy, cz := p.CoordsOf(r)
	return Extent{
		X0: p.xsplit[cx], X1: p.xsplit[cx+1],
		Y0: p.ysplit[cy], Y1: p.ysplit[cy+1],
		Z0: p.zsplit[cz], Z1: p.zsplit[cz+1],
	}
}

// Neighbor returns the rank adjacent to r across side s, or -1 at the
// physical domain boundary (in 2D, always on Back and Front).
func (p *Partition) Neighbor(r int, s Side) int {
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

func searchSplit(s []int, v int) int {
	lo, hi := 0, len(s)-1 // invariant: s[lo] <= v < s[hi]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ColumnOf returns the rank-column owning global x-index i (i must lie in
// [0, NX)). With RowOf and PlaneOf it gives per-axis ownership lookups,
// used by the deflation coarse space to map cells to blocks.
func (p *Partition) ColumnOf(i int) int { return searchSplit(p.xsplit, i) }

// RowOf returns the rank-row owning global y-index j (j must lie in [0, NY)).
func (p *Partition) RowOf(j int) int { return searchSplit(p.ysplit, j) }

// PlaneOf returns the rank-plane owning global z-index k (k must lie in
// [0, NZ)).
func (p *Partition) PlaneOf(k int) int { return searchSplit(p.zsplit, k) }

// MinExtent returns the smallest per-rank cell counts in each dimension
// (nz is 1 in 2D). Remainder cells go to low-index ranks, so the minimum
// is the floor division — identical on every rank, which lets collective
// operations validate against it without diverging.
func (p *Partition) MinExtent() (nx, ny, nz int) {
	return p.NX / p.PX, p.NY / p.PY, p.NZ / p.PZ
}

func (p *Partition) String() string {
	if p.dims == 3 {
		return fmt.Sprintf("Partition3D(%dx%dx%d cells over %dx%dx%d ranks)",
			p.NX, p.NY, p.NZ, p.PX, p.PY, p.PZ)
	}
	return fmt.Sprintf("Partition(%dx%d cells over %dx%d ranks)", p.NX, p.NY, p.PX, p.PY)
}

// FactorNearSquare splits n ranks into px × py with px*py == n and the
// aspect ratio as close to the grid's as possible, preferring px >= py for
// square grids. This mirrors TeaLeaf's tea_decompose chunk factorisation,
// which minimises the communication surface.
func FactorNearSquare(n, nx, ny int) (px, py int) {
	if n <= 0 {
		return 1, 1
	}
	bestPX, bestPY := n, 1
	bestCost := math.Inf(1)
	for q := 1; q*q <= n; q++ {
		if n%q != 0 {
			continue
		}
		for _, cand := range [2][2]int{{q, n / q}, {n / q, q}} {
			cx, cy := cand[0], cand[1]
			if cx > nx || cy > ny {
				continue
			}
			// Communication surface per rank: perimeter of the sub-domain.
			cost := float64(nx)/float64(cx) + float64(ny)/float64(cy)
			if cost < bestCost || (cost == bestCost && cx >= cy && bestPX < bestPY) {
				bestCost, bestPX, bestPY = cost, cx, cy
			}
		}
	}
	return bestPX, bestPY
}

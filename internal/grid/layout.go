package grid

// Layout is a field's storage as three axes: cell (i, j, k) lives at
// Org + k·St[2] + j·St[1] + i. It is the one form the code written once
// for both dimensions reads — the halo reflection below, the halo
// exchange and the gathers in comm, the deflation projector. A 2D grid
// is the nz = 1 case: N[2] = 1, its z halo is 0 and its z stride 0, so
// every loop over z runs once, over plane 0, and a 2D field has no z
// faces.
type Layout struct {
	// N holds the interior cells per axis.
	N [3]int
	// Halo holds the halo depth per axis.
	Halo [3]int
	// St holds the flat-index stride per axis; St[0] is 1.
	St [3]int
	// Org is the flat index of interior cell (0, 0, 0).
	Org int
}

func layout(nx, ny, nz, halo, hz int) Layout {
	l := Layout{N: [3]int{nx, ny, nz}, Halo: [3]int{halo, halo, hz}}
	l.St = [3]int{1, nx + 2*halo}
	if hz > 0 {
		l.St[2] = l.St[1] * (ny + 2*halo)
	}
	l.Org = hz*l.St[2] + halo*l.St[1] + halo
	return l
}

// Layout returns the storage layout of g's fields: the nz = 1 case.
func (g *Grid2D) Layout() Layout { return g.lay }

// Layout returns the storage layout of g's fields.
func (g *Grid3D) Layout() Layout { return g.lay }

// Layout returns the storage layout of f.
func (f *Field2D) Layout() Layout { return f.Grid.lay }

// Layout returns the storage layout of f.
func (f *Field3D) Layout() Layout { return f.Grid.lay }

// Dims returns 2 for a 2D layout (no z halo) and 3 otherwise.
func (l Layout) Dims() int {
	if l.Halo[2] == 0 {
		return 2
	}
	return 3
}

// Off returns the flat index of cell (i, j, k).
func (l Layout) Off(i, j, k int) int { return l.Org + k*l.St[2] + j*l.St[1] + i }

// Reflect fills the halo of data, a field stored in layout l, with
// mirror copies of the nearest interior cells on the sides that sides
// selects (indexed by Side): the homogeneous Neumann (zero normal flux)
// boundary TeaLeaf applies on the outer domain edge. depth is clamped to
// the halo; a 2D layout has no z halo, so its z faces are never written.
//
// The fill order — x faces over every row, then y faces as whole rows
// spanning the x halos, then z faces spanning both — is the order of the
// halo exchange's phases, so edge and corner halo cells are coherent for
// deep stencils. Within a face the cells go in the order they always
// did; that matters only on grids thinner than the depth, where a mirror
// reads a halo cell written a step before.
func (l Layout) Reflect(data []float64, depth int, sides [NumSides3D]bool) {
	d := min(depth, l.Halo[0])
	dz := min(d, l.Halo[2])
	nx, ny, nz := l.N[0], l.N[1], l.N[2]
	org, sj, sk := l.Org, l.St[1], l.St[2]
	if sides[Left] || sides[Right] {
		for k := -dz; k < nz+dz; k++ {
			reflectX(data, org+k*sk-d*sj, sj, ny+2*d, nx, d, sides[Left], sides[Right])
		}
	}
	w := nx + 2*d
	row := func(j, k int) []float64 { o := org + k*sk + j*sj - d; return data[o : o+w] }
	if down, up := sides[Down], sides[Up]; down || up {
		for k := -dz; k < nz+dz; k++ {
			for e := 1; e <= d; e++ {
				if down {
					copy(row(-e, k), row(e-1, k))
				}
				if up {
					copy(row(ny-1+e, k), row(ny-e, k))
				}
			}
		}
	}
	if back, front := sides[Back], sides[Front]; back || front {
		for e := 1; e <= dz; e++ {
			for j := -d; j < ny+d; j++ {
				if back {
					copy(row(j, -e), row(j, e-1))
				}
				if front {
					copy(row(j, nz-1+e), row(j, nz-e))
				}
			}
		}
	}
}

// reflectX mirrors the x faces of a run of rows: the first row's cell 0
// at flat index o, each next row sj further on. Per row, per depth e
// outward, the left cell then the right. It is a function of its own so
// that its loop keeps its few values in registers.
func reflectX(data []float64, o, sj, rows, nx, d int, left, right bool) {
	for range rows {
		for e := 1; e <= d; e++ {
			if left {
				data[o-e] = data[o+e-1]
			}
			if right {
				data[o+nx-1+e] = data[o+nx-e]
			}
		}
		o += sj
	}
}

// allSides selects every face of a sub-domain.
var allSides = [NumSides3D]bool{true, true, true, true, true, true}

// ReflectHalos fills halo cells with mirror copies of the nearest interior
// cells on all four sides (see Layout.Reflect). This is the physical
// boundary condition TeaLeaf applies on the outer domain edge; on
// internal rank boundaries the communicator overwrites halos with
// neighbour data instead.
func (f *Field2D) ReflectHalos(depth int) { f.Grid.lay.Reflect(f.Data, depth, allSides) }

// ReflectHalosSides mirrors only the requested sides (used on ranks whose
// sub-domain touches the physical boundary on some sides only).
func (f *Field2D) ReflectHalosSides(depth int, left, right, down, up bool) {
	f.Grid.lay.Reflect(f.Data, depth, [NumSides3D]bool{left, right, down, up})
}

// ReflectHalos fills halo cells by mirroring interior cells on all six
// faces (zero-flux boundary), edges and corners included.
func (f *Field3D) ReflectHalos(depth int) { f.Grid.lay.Reflect(f.Data, depth, allSides) }

// ReflectHalosSides mirrors only the requested sides (used on ranks whose
// sub-domain touches the physical boundary on some sides only).
func (f *Field3D) ReflectHalosSides(depth int, left, right, down, up, back, front bool) {
	f.Grid.lay.Reflect(f.Data, depth, [NumSides3D]bool{left, right, down, up, back, front})
}

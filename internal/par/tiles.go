package par

// This file is the cache-aware tile scheduler (PR 8): ForTiles and
// ForTilesReduceN decompose a 2D/3D iteration box into cache-sized
// tx×ty(×tz) tiles, hand each worker a contiguous run of tiles (the
// OpenMP-static analogue of the legacy band split), and fold per-tile
// reduction partials in a fixed global tile order that does NOT depend
// on the worker count. The fixed fold order is the load-bearing part:
// tiled reductions are bit-identical across pool sizes, which is what
// lets the solver golden tests and tealint's determinism contracts
// survive tiling.
//
// On an untiled pool (WithTiles never called) both entry points
// degenerate to exactly the legacy For/ForReduceN schedule — one
// contiguous band per worker along the outermost axis, partials folded
// in band order — so converting a kernel to the tile API changes
// nothing, bit for bit, until tiling is switched on.

// Box is the iteration domain handed to the tile scheduler: a half-open
// 2D or 3D index box. Construct with Box2D or Box3D — the constructor
// records the dimensionality, which selects the outermost axis (Y in
// 2D, Z in 3D) for the untiled legacy split.
type Box struct {
	X0, X1, Y0, Y1, Z0, Z1 int
	dims                   int
}

// Box2D returns a 2D iteration box over [x0,x1)×[y0,y1).
func Box2D(x0, x1, y0, y1 int) Box {
	return Box{X0: x0, X1: x1, Y0: y0, Y1: y1, Z0: 0, Z1: 1, dims: 2}
}

// Box3D returns a 3D iteration box over [x0,x1)×[y0,y1)×[z0,z1).
func Box3D(x0, x1, y0, y1, z0, z1 int) Box {
	return Box{X0: x0, X1: x1, Y0: y0, Y1: y1, Z0: z0, Z1: z1, dims: 3}
}

// Empty reports whether the box contains no cells.
func (b Box) Empty() bool { return b.X1 <= b.X0 || b.Y1 <= b.Y0 || b.Z1 <= b.Z0 }

// Tile is one tile of a Box: the sub-box a scheduler body iterates.
// For 2D boxes Z0/Z1 are always 0/1.
type Tile struct {
	X0, X1, Y0, Y1, Z0, Z1 int
}

// fullExtent is the tile-edge sentinel meaning "never split this axis".
// Large enough to exceed any grid extent, small enough that
// origin+fullExtent cannot overflow int.
const fullExtent = 1 << 30

// WithTiles returns a copy of the pool (sharing its worker team) with
// the tiled schedule enabled and the given tile edge lengths. Edges < 1
// mean "do not split that axis" — WithTiles(0, 32, 0) tiles Y in bands
// of 32 rows and leaves X and Z whole, matching the measured behaviour
// that full-row X runs keep the hardware prefetchers streaming.
func (p *Pool) WithTiles(tx, ty, tz int) *Pool {
	if tx < 1 {
		tx = fullExtent
	}
	if ty < 1 {
		ty = fullExtent
	}
	if tz < 1 {
		tz = fullExtent
	}
	return &Pool{workers: p.workers, minGrain: p.minGrain, team: p.team, hold: p.hold,
		tx: tx, ty: ty, tz: tz, tiled: true}
}

// Untiled returns a copy of the pool (sharing its worker team) with the
// tiled schedule disabled — the legacy band split.
func (p *Pool) Untiled() *Pool {
	return &Pool{workers: p.workers, minGrain: p.minGrain, team: p.team, hold: p.hold}
}

// Tiled reports whether the pool runs the tiled schedule.
func (p *Pool) Tiled() bool { return p.tiled }

// TileShape returns the tile edge lengths (meaningful only when Tiled).
// Unsplit axes report the fullExtent sentinel clamped to 0 for clarity.
func (p *Pool) TileShape() (tx, ty, tz int) {
	tx, ty, tz = p.tx, p.ty, p.tz
	if tx >= fullExtent {
		tx = 0
	}
	if ty >= fullExtent {
		ty = 0
	}
	if tz >= fullExtent {
		tz = 0
	}
	return tx, ty, tz
}

// tileCounts returns the tile grid shape for box b: total tiles and the
// x and y tile counts tileAt needs.
func (p *Pool) tileCounts(b Box) (nt, ntx, nty int) {
	ntx = (b.X1 - b.X0 + p.tx - 1) / p.tx
	nty = (b.Y1 - b.Y0 + p.ty - 1) / p.ty
	ntz := (b.Z1 - b.Z0 + p.tz - 1) / p.tz
	return ntx * nty * ntz, ntx, nty
}

// tileAt returns tile t of box b in the fixed global order: X fastest,
// then Y, then Z — so consecutive tile indices touch adjacent memory
// and a worker's contiguous tile run walks the grid like a band.
func (p *Pool) tileAt(b Box, t, ntx, nty int) Tile {
	ix := t % ntx
	iy := (t / ntx) % nty
	iz := t / (ntx * nty)
	x0 := b.X0 + ix*p.tx
	y0 := b.Y0 + iy*p.ty
	z0 := b.Z0 + iz*p.tz
	return Tile{
		X0: x0, X1: min(x0+p.tx, b.X1),
		Y0: y0, Y1: min(y0+p.ty, b.Y1),
		Z0: z0, Z1: min(z0+p.tz, b.Z1),
	}
}

// ForTiles runs body once per tile of b, tiles assigned to workers in
// contiguous runs. body must be safe to call concurrently on distinct
// tiles. On an untiled pool this is exactly For over the outermost axis
// with full-extent tiles — the legacy schedule. The reentrancy rules of
// For apply.
func (p *Pool) ForTiles(b Box, body func(t Tile)) {
	if b.Empty() {
		return
	}
	if !p.tiled {
		if b.dims == 3 {
			p.For(b.Z0, b.Z1, func(lo, hi int) {
				body(Tile{X0: b.X0, X1: b.X1, Y0: b.Y0, Y1: b.Y1, Z0: lo, Z1: hi})
			})
		} else {
			p.For(b.Y0, b.Y1, func(lo, hi int) {
				body(Tile{X0: b.X0, X1: b.X1, Y0: lo, Y1: hi, Z0: b.Z0, Z1: b.Z1})
			})
		}
		return
	}
	nt, ntx, nty := p.tileCounts(b)
	nb := p.workers
	if nb > nt {
		nb = nt
	}
	if nb <= 1 {
		for t := 0; t < nt; t++ {
			body(p.tileAt(b, t, ntx, nty))
		}
		return
	}
	p.region(nb, func(id int) {
		for t := id * nt / nb; t < (id+1)*nt/nb; t++ {
			body(p.tileAt(b, t, ntx, nty))
		}
	})
}

// ForTilesReduceN runs body once per tile of b with k simultaneous sum
// reductions: body accumulates its tile's contribution into acc (len k,
// zeroed per tile). The per-tile partials are folded in ascending global
// tile order — NOT worker order — so for a fixed tile shape the result
// is bit-identical for every worker count, including serial. On an
// untiled pool this degenerates to the legacy ForReduceN schedule and
// fold (one band per worker, folded in band order), so converted
// kernels reproduce their historical sums exactly until tiling is
// enabled.
func (p *Pool) ForTilesReduceN(k int, b Box, body func(t Tile, acc []float64)) []float64 {
	out := make([]float64, k)
	if b.Empty() || k == 0 {
		return out
	}
	if !p.tiled {
		lo, hi := b.Y0, b.Y1
		band := func(lo, hi int) Tile {
			return Tile{X0: b.X0, X1: b.X1, Y0: lo, Y1: hi, Z0: b.Z0, Z1: b.Z1}
		}
		if b.dims == 3 {
			lo, hi = b.Z0, b.Z1
			band = func(lo, hi int) Tile {
				return Tile{X0: b.X0, X1: b.X1, Y0: b.Y0, Y1: b.Y1, Z0: lo, Z1: hi}
			}
		}
		nb := p.blocks(lo, hi)
		if nb == 1 {
			body(band(lo, hi), out)
			return out
		}
		n := hi - lo
		stride := k
		if stride < 8 {
			stride = 8
		}
		partial := make([]float64, nb*stride)
		p.region(nb, func(id int) {
			body(band(lo+id*n/nb, lo+(id+1)*n/nb), partial[id*stride:id*stride+k:id*stride+k])
		})
		for bi := 0; bi < nb; bi++ {
			for i := 0; i < k; i++ {
				out[i] += partial[bi*stride+i]
			}
		}
		return out
	}
	nt, ntx, nty := p.tileCounts(b)
	// One padded accumulator chunk per TILE (not per worker): the fold
	// below walks chunks in tile order, which is what makes the sum
	// independent of how tiles were assigned to workers. The serial path
	// uses the same per-tile buffer + fold so that body implementations
	// that accumulate incrementally into acc still produce the exact
	// bits of the parallel fold.
	stride := k
	if stride < 8 {
		stride = 8
	}
	partial := make([]float64, nt*stride)
	run := func(t int) {
		body(p.tileAt(b, t, ntx, nty), partial[t*stride:t*stride+k:t*stride+k])
	}
	nb := p.workers
	if nb > nt {
		nb = nt
	}
	if nb <= 1 {
		for t := 0; t < nt; t++ {
			run(t)
		}
	} else {
		p.region(nb, func(id int) {
			for t := id * nt / nb; t < (id+1)*nt/nb; t++ {
				run(t)
			}
		})
	}
	for t := 0; t < nt; t++ {
		for i := 0; i < k; i++ {
			out[i] += partial[t*stride+i]
		}
	}
	return out
}

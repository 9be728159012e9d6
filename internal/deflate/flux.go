package deflate

import (
	"errors"
	"fmt"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// projector is the dimension-free core Deflation and Deflation3D embed:
// the face-flux representation of A·W, the fixed-order restriction Wᵀ and
// the coarse solve, written once over flat padded indices. A 2D grid is
// the n[2] = 1, h[2] = 0, st[2] = 0 case of the same layout.
//
// The representation rests on one identity: for the block-constant field
// v = W·λ, at a cell i of block c,
//
//	(A·v)_i = λ_c + Σ_faces K_face·(λ_c − λ_nbr),
//
// and λ_c − λ_nbr is EXACTLY zero across every face inside a block. So
// A·W·λ is λ_c in block interiors — no stencil, no rounding — and differs
// only on block-boundary faces, whose K is read straight from the
// operator; evaluating diag·λ − ΣK·λ on a materialised W·λ instead
// cancels O(‖A‖·‖λ‖) terms and injects that roundoff into every iterate.
// E = Wᵀ·A·W is assembled from the same face sums, so E and the applied
// A·W are one representation.
type projector struct {
	pool *par.Pool
	c    comm.Communicator
	dims int

	// Layout: cell (i,j,k) lives at org + k·st[2] + j·st[1] + i; n is the
	// interior extent and h the halo depth per axis; in is the interior
	// (z ∈ [0, 1) in 2D).
	n, h, st [3]int
	org      int
	in       grid.Bounds3D
	// k[a][idx] is the face coefficient coupling cell idx to cell
	// idx − st[a] (the operator's Kx, Ky, Kz data; nil for z in 2D).
	k [3][]float64

	// nb and bst are the block counts and block-index strides per axis.
	nb, bst [3]int
	// blk[a][p+h[a]+1] is the block-axis index of local coordinate
	// p ∈ [−h[a]−1, n[a]+h[a]], with out-of-mesh coordinates clamped to
	// the mesh edge: that reproduces the zero-flux mirror on physical
	// boundaries (no block face there) and the true neighbour block across
	// rank boundaries, so halo and extended-bounds cells need no exchange.
	blk [3][]int
	// xend[cx] is the local x coordinate one past block column cx (the
	// last column never ends).
	xend []int

	// coarse applies E⁻¹: dense Cholesky at levels == 1, the nested
	// blocks-of-blocks hierarchy above.
	coarse *hierarchy
	levels int
	// cnt[c] is block c's global cell count.
	cnt []float64
	// cr is the coarse residual Wᵀ·w; the coarse solution is
	// λ_c = lbar + cl[c] (see solve); rows holds the restriction's per-row,
	// per-block-column partial sums.
	cr, cl, rows []float64
	lbar         float64
}

// init validates the block geometry (the p.dims leading axes of global,
// off and the Config are meaningful), builds the block tables and
// assembles the coarse matrix. dims, the layout fields, pool, c and k
// must already be set. Collective.
func (p *projector) init(global, off [3]int, cfg Config) error {
	dims := p.dims
	if p.pool == nil {
		p.pool = par.Serial
	}
	if p.c == nil {
		p.c = comm.NewSerial()
	}
	p.nb = [3]int{cfg.BX, cfg.BY, cfg.BZ}
	for a := dims; a < 3; a++ {
		p.nb[a], global[a], off[a] = 1, 1, 0
	}
	for a := 0; a < dims; a++ {
		if p.nb[a] < 1 {
			return errors.New("deflate: need at least one subdomain per direction")
		}
		if p.nb[a] > global[a] {
			return fmt.Errorf("deflate: %s subdomains exceed the %s global mesh",
				dimsString(p.nb[:dims]), dimsString(global[:dims]))
		}
		if off[a] < 0 || off[a]+p.n[a] > global[a] {
			return fmt.Errorf("deflate: local %s grid at offset %v outside the %s global mesh",
				dimsString(p.n[:dims]), off[:dims], dimsString(global[:dims]))
		}
	}
	bpart, err := grid.NewPartition3D(global[0], global[1], global[2], p.nb[0], p.nb[1], p.nb[2])
	if err != nil {
		return err
	}
	p.bst = [3]int{1, p.nb[0], p.nb[0] * p.nb[1]}
	p.levels = max(cfg.Levels, 1)
	nc := p.nb[0] * p.nb[1] * p.nb[2]
	p.cr = make([]float64, nc)
	p.cl = make([]float64, nc)

	blockOf := [3]func(int) int{bpart.ColumnOf, bpart.RowOf, bpart.PlaneOf}
	for a := 0; a < 3; a++ {
		p.blk[a] = make([]int, p.n[a]+2*p.h[a]+2)
		for q := range p.blk[a] {
			p.blk[a][q] = blockOf[a](min(max(off[a]+q-p.h[a]-1, 0), global[a]-1))
		}
	}
	p.xend = make([]int, p.nb[0])
	for cx := range p.xend {
		p.xend[cx] = p.n[0] + p.h[0] + 1
	}
	for q := -p.h[0]; q <= p.n[0]+p.h[0]; q++ {
		if cx := p.block(0, q-1); cx != p.block(0, q) {
			p.xend[cx] = q
		}
	}
	p.rows = make([]float64, p.n[1]*p.n[2]*p.nb[0])
	return p.assemble()
}

// block returns the block-axis index of local coordinate q on axis a.
func (p *projector) block(a, q int) int { return p.blk[a][q+p.h[a]+1] }

// Subdomains returns the coarse-space dimension (the block count).
func (p *projector) Subdomains() int { return len(p.cl) }

// Levels returns the coarse-hierarchy depth (1 = dense two-level solve).
func (p *projector) Levels() int { return p.coarse.levels() }

// assemble builds and factors the coarse Galerkin matrix E = Wᵀ·A·W from
// face sums: E[c,c'] = −ΣK over the faces blocks c and c' share, and
// E[c,c] = |block c| + ΣK over all of c's block-boundary faces. Each rank
// walks only its own block faces (a face belongs to its upper cell's
// owner) in ascending cell order — O(block perimeter), serial, no pool —
// and counts its own cells; one AllReduceSumN round of 4 values per block
// hands every rank the identical sums, from which each builds the same
// exactly symmetric E. Collective.
func (p *projector) assemble() error {
	nc := len(p.cl)
	// [cell counts | x-face ΣK | y-face ΣK | z-face ΣK], a face sum
	// indexed by the upper of the two blocks it couples.
	sums := make([]float64, 4*nc)
	p.forRuns(p.whole(), func(_, i0, i1, c int) { sums[c] += float64(i1 - i0) })
	for a := 0; a < 3; a++ {
		fs := sums[(1+a)*nc : (2+a)*nc]
		for q := 0; q < p.n[a]; q++ {
			if p.block(a, q-1) == p.block(a, q) {
				continue
			}
			t := p.whole() // narrowed to the plane of cells above the face
			switch a {
			case 0:
				t.X0, t.X1 = q, q+1
			case 1:
				t.Y0, t.Y1 = q, q+1
			case 2:
				t.Z0, t.Z1 = q, q+1
			}
			p.forRuns(t, func(o, i0, i1, c int) {
				for _, kv := range p.k[a][o+i0 : o+i1] {
					fs[c] += kv
				}
			})
		}
	}
	sums = p.c.AllReduceSumN(sums)
	p.cnt = sums[:nc]
	e := make([]float64, nc*nc)
	for c, n := range p.cnt {
		e[c*(nc+1)] += n
	}
	for a := 0; a < 3; a++ {
		for c, s := range sums[(1+a)*nc : (2+a)*nc] {
			if lo := c - p.bst[a]; s != 0 {
				e[lo*nc+c], e[c*nc+lo] = -s, -s
				e[lo*(nc+1)] += s
				e[c*(nc+1)] += s
			}
		}
	}

	aggs, err := aggregations(p.levels, p.nb[:p.dims]...)
	if err != nil {
		return err
	}
	h, err := newHierarchy(e, nc, aggs)
	if err != nil {
		return fmt.Errorf("deflate: coarse matrix not SPD: %w", err)
	}
	p.coarse = h
	return nil
}

// whole returns the interior as one box.
func (p *projector) whole() grid.Bounds3D { return grid.Bounds3D{X1: p.n[0], Y1: p.n[1], Z1: p.n[2]} }

// outer returns the range of b's outer axis, the one a pool splits it
// along — z in 3D, y in 2D, as the kernels' row walker splits its boxes.
func (p *projector) outer(b grid.Bounds3D) (lo, hi int) {
	if p.dims == 3 {
		return b.Z0, b.Z1
	}
	return b.Y0, b.Y1
}

// band returns the part of b whose outer coordinate lies in [lo, hi).
func (p *projector) band(b grid.Bounds3D, lo, hi int) grid.Bounds3D {
	if p.dims == 3 {
		b.Z0, b.Z1 = lo, hi
	} else {
		b.Y0, b.Y1 = lo, hi
	}
	return b
}

// solve computes λ = E⁻¹·b as λ̄·1 + μ (p.lbar, p.cl). E·1 is exactly the
// vector of block cell counts — every flux vanishes on a constant — so
// the constant mode is split off in closed form, λ̄ = Σb/Σ|c|, and only
// the deviation μ = E⁻¹·(b − λ̄·|c|) goes through the hierarchy solve.
// The fluxes ΣK·(λ_c − λ_c') the correction applies then difference μ,
// not λ: stored whole, λ would quantise them at ε·ΣK·|λ̄|, which on a
// stiff operator is the projector's entire error. Replicated: every rank
// computes identical bits.
func (p *projector) solve(b []float64) {
	var sb, sn float64
	for c, n := range p.cnt {
		sb += b[c]
		sn += n
	}
	p.lbar = sb / sn
	for c, n := range p.cnt {
		p.cr[c] = b[c] - p.lbar*n
	}
	p.coarse.Solve(p.cr, p.cl)
}

// restrict computes the LOCAL contribution to Wᵀ·w (block sums over this
// rank's interior) into p.cr. The pooled pass sums each grid row's runs
// of constant block column with eight fixed lanes into p.rows; the serial
// fold then adds the row sums per block in ascending row order. Neither
// step depends on how rows were dealt to workers, so the result is
// bit-identical for every worker count — or for the rows
// handed over one at a time by the fused CG pass (restrictRow), the
// pooled half of a projection the solver takes inside its own sweep.
func (p *projector) restrict(w []float64) {
	p.pool.For(0, p.n[1]*p.n[2], func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			p.restrictRow(w, r)
		}
	})
	p.foldRows()
}

// restrictRow sums interior row r (r = z·ny + y) of w by block-column run
// into p.rows. Rows are independent: workers may take any rows, in any
// order, concurrently.
func (p *projector) restrictRow(w []float64, r int) {
	nx, ny, nbx := p.n[0], p.n[1], p.nb[0]
	o := p.org + (r/ny)*p.st[2] + (r%ny)*p.st[1]
	for i0 := 0; i0 < nx; {
		cx := p.block(0, i0)
		i1 := min(p.xend[cx], nx)
		p.rows[r*nbx+cx] = laneSum(w[o+i0 : o+i1])
		i0 = i1
	}
}

// foldRows adds the row sums in p.rows into p.cr per block, in ascending
// row order.
func (p *projector) foldRows() {
	ny, nbx := p.n[1], p.nb[0]
	clear(p.cr)
	for r := 0; r < ny*p.n[2]; r++ {
		c0 := p.block(2, r/ny)*p.bst[2] + p.block(1, r%ny)*p.bst[1]
		for cx, s := range p.rows[r*nbx : (r+1)*nbx] {
			p.cr[c0+cx] += s // block columns off this rank stay zero
		}
	}
}

// laneSum sums xs with eight interleaved accumulators in a fixed order
// (enough independent chains to hide the FP-add latency). Each group of
// eight is re-sliced to its length so the loop carries no bounds checks.
func laneSum(xs []float64) float64 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+7 < len(xs); i += 8 {
		x := xs[i : i+8 : i+8]
		s0 += x[0]
		s1 += x[1]
		s2 += x[2]
		s3 += x[3]
		s4 += x[4]
		s5 += x[5]
		s6 += x[6]
		s7 += x[7]
	}
	for ; i < len(xs); i++ {
		s0 += xs[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// solveCoarse computes λ = E⁻¹·Wᵀ·v into p.cl: a rank-local restriction,
// one AllReduceSumN round (the only communication a projection performs),
// and the replicated hierarchy solve every rank executes identically.
func (p *projector) solveCoarse(v []float64) {
	p.restrict(v)
	p.solve(p.c.AllReduceSumN(p.cr))
}

// projectRestricted is project for a w whose every interior row has been
// handed to restrictRow since it was last written: the fold, the round,
// the coarse solve and the correction. Collective.
func (p *projector) projectRestricted(b grid.Bounds3D, w, m, x []float64) float64 {
	p.foldRows()
	p.solve(p.c.AllReduceSumN(p.cr))
	return p.correct(b, w, m, x)
}

// coarseCorrect applies u += W·E⁻¹·Wᵀ·r over the interior.
func (p *projector) coarseCorrect(r, u []float64) {
	p.solveCoarse(r)
	lo, hi := p.outer(p.in)
	p.pool.For(lo, hi, func(k0, k1 int) {
		p.forRuns(p.band(p.in, k0, k1), func(o, i0, i1, c int) {
			lam := p.lbar + p.cl[c]
			us := u[o+i0 : o+i1]
			for i := range us {
				us[i] += lam
			}
		})
	})
}

// forRuns calls body once per run of constant block index c in box t:
// the cells [i0,i1) of the grid row starting at flat offset o.
func (p *projector) forRuns(t grid.Bounds3D, body func(o, i0, i1, c int)) {
	for k := t.Z0; k < t.Z1; k++ {
		for j := t.Y0; j < t.Y1; j++ {
			o := p.org + k*p.st[2] + j*p.st[1]
			c0 := p.block(2, k)*p.bst[2] + p.block(1, j)*p.bst[1]
			for i0 := t.X0; i0 < t.X1; {
				cx := p.block(0, i0)
				i1 := min(p.xend[cx], t.X1)
				body(o, i0, i1, c0+cx)
				i0 = i1
			}
		}
	}
}

// project computes w ← P·w = w − A·W·E⁻¹·Wᵀ·w with the correction
// written over b ⊇ interior and returns the local interior partial of
// (m⊙x)·(P·w) from the same pass (see correct). Collective: one
// reduction round.
func (p *projector) project(b grid.Bounds3D, w, m, x []float64) float64 {
	p.solveCoarse(w)
	return p.correct(b, w, m, x)
}

// correct subtracts A·W·λ (λ_c = p.lbar + p.cl[c]) from w over b ⊇ interior in one
// read-modify-write and returns Σ (m⊙x)·w over the INTERIOR of the
// corrected w (nil m = identity; nil x = no dot, 0), folded in fixed band
// order like every other solver dot. Cells of b beyond the interior
// replicate a neighbour rank's interior and stay out of the dot; they are
// corrected by the same per-cell arithmetic, so they replicate it bitwise.
// b.Expand(1) must fit the padded grid, which holds for the extended
// bounds of any depth ≤ halo matrix-powers cycle.
func (p *projector) correct(b grid.Bounds3D, w, m, x []float64) float64 {
	lo, hi := p.outer(p.in)
	dot := p.pool.ForReduceN(1, lo, hi, func(k0, k1 int, acc []float64) {
		acc[0] += p.correctBox(p.band(p.in, k0, k1), w, m, x)
	})[0]
	for _, rb := range rings(b, p.in) {
		if rb.Empty() {
			continue
		}
		lo, hi := p.outer(rb)
		p.pool.For(lo, hi, func(k0, k1 int) { p.correctBox(p.band(rb, k0, k1), w, nil, nil) })
	}
	return dot
}

// correctBox applies the correction to one box. Per cell, in this
// order whatever the box shape: the two x faces (only the end cells of
// a block-column run have one), then the y and z faces (only rows on a
// block boundary have any), then λ_c itself with the optional dot.
func (p *projector) correctBox(t grid.Bounds3D, w, m, x []float64) float64 {
	var s [4]float64
	kx := p.k[0]
	for k := t.Z0; k < t.Z1; k++ {
		for j := t.Y0; j < t.Y1; j++ {
			o := p.org + k*p.st[2] + j*p.st[1]
			c0 := p.block(2, k)*p.bst[2] + p.block(1, j)*p.bst[1]
			// The row's y/z block faces: coefficient array, its row offset
			// and the neighbour block-index delta.
			var faces [4]struct {
				ka      []float64
				off, dc int
			}
			nf := 0
			for a, q := 1, [3]int{0, j, k}; a < 3; a++ {
				if p.block(a, q[a]-1) != p.block(a, q[a]) {
					faces[nf].ka, faces[nf].off, faces[nf].dc = p.k[a], o, -p.bst[a]
					nf++
				}
				if p.block(a, q[a]+1) != p.block(a, q[a]) {
					faces[nf].ka, faces[nf].off, faces[nf].dc = p.k[a], o+p.st[a], p.bst[a]
					nf++
				}
			}
			for i0 := t.X0; i0 < t.X1; {
				cx := p.block(0, i0)
				i1 := min(p.xend[cx], t.X1)
				c := c0 + cx
				mu := p.cl[c]
				lam := p.lbar + mu
				ws := w[o+i0 : o+i1]
				if p.block(0, i0-1) != cx {
					ws[0] -= kx[o+i0] * (mu - p.cl[c-1])
				}
				if p.block(0, i1) != cx {
					ws[len(ws)-1] -= kx[o+i1] * (mu - p.cl[c+1])
				}
				for _, f := range faces[:nf] {
					d := mu - p.cl[c+f.dc]
					ks := f.ka[f.off+i0 : f.off+i1]
					for i := range ws {
						ws[i] -= ks[i] * d
					}
				}
				switch {
				case x == nil:
					for i := range ws {
						ws[i] -= lam
					}
				case m == nil:
					subDot(ws, x[o+i0:o+i1], lam, &s)
				default:
					subDotPre(ws, m[o+i0:o+i1], x[o+i0:o+i1], lam, &s)
				}
				i0 = i1
			}
		}
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// subDot computes ws −= lam and accumulates xs·ws into the four lanes.
// Each group of four is re-sliced to its length, as in laneSum.
func subDot(ws, xs []float64, lam float64, s *[4]float64) {
	xs = xs[:len(ws)]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	i := 0
	for ; i+3 < len(ws); i += 4 {
		w, x := ws[i:i+4:i+4], xs[i:i+4:i+4]
		v0, v1, v2, v3 := w[0]-lam, w[1]-lam, w[2]-lam, w[3]-lam
		w[0], w[1], w[2], w[3] = v0, v1, v2, v3
		s0 += x[0] * v0
		s1 += x[1] * v1
		s2 += x[2] * v2
		s3 += x[3] * v3
	}
	for ; i < len(ws); i++ {
		v := ws[i] - lam
		ws[i] = v
		s0 += xs[i] * v
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// subDotPre is subDot with the folded diagonal: it accumulates
// (ms⊙xs)·ws.
func subDotPre(ws, ms, xs []float64, lam float64, s *[4]float64) {
	xs, ms = xs[:len(ws)], ms[:len(ws)]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	i := 0
	for ; i+3 < len(ws); i += 4 {
		w, m, x := ws[i:i+4:i+4], ms[i:i+4:i+4], xs[i:i+4:i+4]
		v0, v1, v2, v3 := w[0]-lam, w[1]-lam, w[2]-lam, w[3]-lam
		w[0], w[1], w[2], w[3] = v0, v1, v2, v3
		s0 += m[0] * x[0] * v0
		s1 += m[1] * x[1] * v1
		s2 += m[2] * x[2] * v2
		s3 += m[3] * x[3] * v3
	}
	for ; i < len(ws); i++ {
		v := ws[i] - lam
		ws[i] = v
		s0 += ms[i] * xs[i] * v
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// rings decomposes outer ∖ in into six disjoint boxes, any of them
// possibly empty: z slabs at full extent, y slabs at interior depth, x
// strips at interior depth and height.
func rings(outer, in grid.Bounds3D) [6]grid.Bounds3D {
	zlo, zhi := outer, outer
	zlo.Z1, zhi.Z0 = in.Z0, in.Z1
	outer.Z0, outer.Z1 = in.Z0, in.Z1
	ylo, yhi := outer, outer
	ylo.Y1, yhi.Y0 = in.Y0, in.Y1
	outer.Y0, outer.Y1 = in.Y0, in.Y1
	xlo, xhi := outer, outer
	xlo.X1, xhi.X0 = in.X0, in.X1
	return [6]grid.Bounds3D{zlo, zhi, ylo, yhi, xlo, xhi}
}

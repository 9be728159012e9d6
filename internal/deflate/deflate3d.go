package deflate

import (
	"errors"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// Geometry3D locates a rank's sub-grid within the global 3D mesh. The
// zero value means "the local grid is the whole mesh".
type Geometry3D struct {
	// GlobalNX, GlobalNY, GlobalNZ are the global interior cell counts.
	GlobalNX, GlobalNY, GlobalNZ int
	// OffsetX, OffsetY, OffsetZ are the global coordinates of the local
	// interior cell (0,0,0).
	OffsetX, OffsetY, OffsetZ int
}

// Deflation3D is the 3D coarse-space projector — the same face-flux
// projector core as Deflation, bound to a 7-point operator and a
// BX×BY×BZ box partition of the global mesh.
type Deflation3D struct {
	projector
	op *stencil.Operator3D
}

// New3D builds the 3D deflation projector for op over a cfg.BX × cfg.BY ×
// cfg.BZ box partition of the global mesh described by geom. Collective:
// every rank of a distributed solve must call it (one allreduce assembles
// the coarse matrix). A nil pool runs serial, a nil c is a fresh
// single-rank communicator, and the zero geom treats the local grid as
// the whole mesh.
func New3D(pool *par.Pool, c comm.Communicator, op *stencil.Operator3D, geom Geometry3D, cfg Config) (*Deflation3D, error) {
	g := op.Grid
	if geom.GlobalNX == 0 && geom.GlobalNY == 0 && geom.GlobalNZ == 0 {
		geom.GlobalNX, geom.GlobalNY, geom.GlobalNZ = g.NX, g.NY, g.NZ
	}
	org := g.Index(0, 0, 0)
	d := &Deflation3D{op: op, projector: projector{
		pool: pool, c: c, dims: 3,
		n: [3]int{g.NX, g.NY, g.NZ}, h: [3]int{g.Halo, g.Halo, g.Halo},
		st: [3]int{1, g.Index(0, 1, 0) - org, g.Index(0, 0, 1) - org}, org: org,
		in: g.Interior(),
		k:  [3][]float64{op.Kx.Data, op.Ky.Data, op.Kz.Data},
	}}
	err := d.init([3]int{geom.GlobalNX, geom.GlobalNY, geom.GlobalNZ},
		[3]int{geom.OffsetX, geom.OffsetY, geom.OffsetZ}, cfg)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Refresh rebinds the projector to op and re-assembles the coarse matrix
// only when changed is true — the 3D twin of Deflation.Refresh, with the
// same rank-uniformity requirement on the flag.
func (d *Deflation3D) Refresh(op *stencil.Operator3D, changed bool) error {
	if op.Grid != d.op.Grid {
		return errors.New("deflate: Refresh requires an operator on the same grid")
	}
	d.op = op
	d.k = [3][]float64{op.Kx.Data, op.Ky.Data, op.Kz.Data}
	if !changed {
		return nil
	}
	return d.assemble()
}

// CoarseCorrect applies u += W·E⁻¹·Wᵀ·r. Collective.
func (d *Deflation3D) CoarseCorrect(r, u *grid.Field3D) { d.coarseCorrect(r.Data, u.Data) }

// ProjectW computes w ← P·w = w − A·W·E⁻¹·Wᵀ·w in place over the
// interior. Collective.
func (d *Deflation3D) ProjectW(w *grid.Field3D) { d.project(d.in, w.Data, nil, nil) }

// ProjectWBounds is the 3D twin of Deflation.ProjectWBounds: the
// correction over b ⊇ interior, the restriction interior-only, and the
// rank-local interior dot (minv⊙x)·(P·w) from the same pass. Collective.
func (d *Deflation3D) ProjectWBounds(b grid.Bounds3D, w, minv, x *grid.Field3D) float64 {
	return d.project(b, w.Data, minv.DataOrNil(), x.DataOrNil())
}

// RestrictRow takes row (j, k) of w's interior into the restriction of
// the next ProjectWRestricted — see Deflation.RestrictRow.
func (d *Deflation3D) RestrictRow(w *grid.Field3D, j, k int) { d.restrictRow(w.Data, k*d.n[1]+j) }

// ProjectWRestricted is the 3D twin of Deflation.ProjectWRestricted.
// Collective.
func (d *Deflation3D) ProjectWRestricted(b grid.Bounds3D, w, minv, x *grid.Field3D) float64 {
	return d.projectRestricted(b, w.Data, minv.DataOrNil(), x.DataOrNil())
}

// Package deflate implements the deflation technique the paper lists as
// future work (§VII): "Using deflation techniques [27] we will be able to
// represent these low energy modes in a series of nested lower dimensional
// sub-spaces." The reference is Frank & Vuik's subdomain deflation: the
// deflation space W is spanned by piecewise-constant indicator vectors of
// a coarse block partition of the GLOBAL mesh, which captures exactly the
// smooth, low-energy modes that make κ(A) grow with mesh size.
//
// Deflated CG iterates on the projected operator P·A with
//
//	P = I − A·W·E⁻¹·Wᵀ,   E = Wᵀ·A·W  (the coarse Galerkin matrix),
//
// so the effective spectrum has its smallest eigenvalues removed and the
// iteration count drops accordingly. E is tiny (one row per subdomain);
// with Config.Levels == 1 it is factored once by dense Cholesky, and with
// Levels > 1 it is itself deflated over a nested blocks-of-blocks
// aggregation — the paper's "series of nested lower dimensional
// sub-spaces" — with the dense solve only at the top of the hierarchy.
//
// The projector is fully distributed and dimension-agnostic: one core
// (flux.go, over flat padded indices) serves the 2D Deflation and the 3D
// Deflation3D, interior and deep-halo extended bounds, blocking and
// split-phase projections alike. It never materialises W·λ and never runs
// the stencil: A·W·λ is exactly λ_c in block interiors and differs only by
// K_face·(λ_c − λ_nbr) on block-boundary faces, so the fine-grid half of P
// is one read-modify-write of w (which also hands back the re-measured CG
// curvature). The restriction Wᵀ·w is a pooled pass of fixed-lane row
// sums folded per block in ascending row order — bit-identical for every
// worker count. E is assembled from the same face sums through a single
// comm.AllReduceSumN round that is order-deterministic on every backend,
// so each rank factors the same exactly symmetric matrix and the coarse
// solve never needs a broadcast. Block membership of halo cells comes
// from the clamped global coordinate: no halo exchange anywhere.
//
// A regime note the experiments make precise: for the per-step operator
// A = I + Δt·L the smallest eigenvalue is pinned at 1 (L has a zero mode
// under zero-flux boundaries), so deflation only pays when Δt·λ₂(L) ≳ 1 —
// very stiff steps, near-steady solves, or the "extreme condition numbers"
// the paper's §VIII flags as the open robustness question. For TeaLeaf's
// production Δt the low modes sit at 1+ε and there is nothing to deflate;
// the tests cover both regimes.
package deflate

import (
	"errors"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// Config selects the coarse-space geometry: the block partition of the
// global mesh and the depth of the nested hierarchy.
type Config struct {
	// BX, BY, BZ are the coarse subdomain counts per direction over the
	// GLOBAL mesh (BZ is ignored in 2D). Each must be at least 1 and at
	// most the global cell count in its direction.
	BX, BY, BZ int
	// Levels is the nested-hierarchy depth (default 1): 1 solves the
	// coarse matrix E directly by dense Cholesky; L > 1 deflates E itself
	// over a blocks-of-blocks aggregation (halving each direction per
	// level, dense solve only at the top). Each extra level needs at
	// least one direction with more than one block to aggregate.
	Levels int
}

// Geometry locates a rank's sub-grid within the global 2D mesh. The zero
// value means "the local grid is the whole mesh" (single-rank runs).
type Geometry struct {
	// GlobalNX, GlobalNY are the global interior cell counts.
	GlobalNX, GlobalNY int
	// OffsetX, OffsetY are the global coordinates of the local interior
	// cell (0,0).
	OffsetX, OffsetY int
}

// Deflation is the 2D coarse-space projector: the shared face-flux
// projector core bound to a 5-point operator.
type Deflation struct {
	projector
	op *stencil.Operator2D
}

// New builds the deflation projector for op over a cfg.BX × cfg.BY block
// partition of the global mesh described by geom. Every rank of a
// distributed solve must call it collectively (it performs one allreduce
// to assemble the coarse matrix); c must be the solve's communicator. A
// nil pool runs serial, a nil c is a fresh single-rank communicator, and
// the zero geom treats the local grid as the whole mesh.
func New(pool *par.Pool, c comm.Communicator, op *stencil.Operator2D, geom Geometry, cfg Config) (*Deflation, error) {
	g := op.Grid
	if geom.GlobalNX == 0 && geom.GlobalNY == 0 {
		geom.GlobalNX, geom.GlobalNY = g.NX, g.NY
	}
	d := &Deflation{op: op, projector: projector{
		pool: pool, c: c, dims: 2,
		n: [3]int{g.NX, g.NY, 1}, h: [3]int{g.Halo, g.Halo, 0},
		st: [3]int{1, g.Stride(), 0}, org: g.Index(0, 0),
		in: box2(g.Interior()),
		k:  [3][]float64{op.Kx.Data, op.Ky.Data, nil},
	}}
	err := d.init([3]int{geom.GlobalNX, geom.GlobalNY}, [3]int{geom.OffsetX, geom.OffsetY}, cfg)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// box2 is b as the projector's box: the one-plane z ∈ [0, 1) case.
func box2(b grid.Bounds) grid.Bounds3D {
	return grid.Bounds3D{X0: b.X0, X1: b.X1, Y0: b.Y0, Y1: b.Y1, Z1: 1}
}

// Refresh rebinds the projector to op — typically the operator rebuilt
// for a new time step — and re-assembles and re-factors the coarse
// matrix only when changed reports that the operator's entries actually
// changed. The flag MUST be rank-uniform: assembly is collective, so
// ranks disagreeing on it would deadlock. With changed == false the
// cached E (and its factorization) is reused and Refresh performs no
// communication at all — a time step whose operator is unchanged skips
// the assembly reduction round entirely.
func (d *Deflation) Refresh(op *stencil.Operator2D, changed bool) error {
	if op.Grid != d.op.Grid {
		return errors.New("deflate: Refresh requires an operator on the same grid")
	}
	d.op = op
	d.k = [3][]float64{op.Kx.Data, op.Ky.Data, nil}
	if !changed {
		return nil
	}
	return d.assemble()
}

// CoarseCorrect applies u += W·E⁻¹·Wᵀ·r: the coarse-grid solve that
// zeroes the deflation-space component of the residual. Collective —
// every rank must call it with its local fields.
func (d *Deflation) CoarseCorrect(r, u *grid.Field2D) { d.coarseCorrect(r.Data, u.Data) }

// ProjectW computes w ← P·w = w − A·W·E⁻¹·Wᵀ·w in place over the
// interior: a pooled restriction, one coarse solve (a single reduction
// round) and one read-modify-write of w that touches the operator only on
// block-boundary faces. Collective.
func (d *Deflation) ProjectW(w *grid.Field2D) { d.project(d.in, w.Data, nil, nil) }

// ProjectWBounds is ProjectW with the fine-grid correction written over
// the extended bounds b ⊇ interior — the deep-halo form the solver's
// matrix-powers CG cycles need — returning the rank-local interior dot
// (minv⊙x)·(P·w) folded by the same pass: the curvature the CG engines
// re-measure after every projection (nil minv = identity; nil x = no dot,
// returns 0). The restriction stays interior-only (cells beyond it
// replicate another rank's interior), so λ is identical for every b.
// b.Expand(1) must fit the padded grid, which holds for any extended
// bounds of a depth ≤ Grid.Halo cycle. Collective.
func (d *Deflation) ProjectWBounds(b grid.Bounds, w, minv, x *grid.Field2D) float64 {
	return d.project(box2(b), w.Data, minv.DataOrNil(), x.DataOrNil())
}

// RestrictRow takes row k of w's interior into the restriction of the
// next ProjectWRestricted: the solver's one-pass fused CG iteration hands
// each row over as soon as its matvec has finished it, while it is still
// in cache. Rows are independent; any worker may hand over any row.
func (d *Deflation) RestrictRow(w *grid.Field2D, k int) { d.restrictRow(w.Data, k) }

// ProjectWRestricted is ProjectWBounds for a w whose every interior row
// was handed to RestrictRow after w was last written: the restriction's
// row sums are already taken, so it folds them and goes straight to the
// coarse solve and the correction pass. Same bits as ProjectWBounds.
// Collective.
func (d *Deflation) ProjectWRestricted(b grid.Bounds, w, minv, x *grid.Field2D) float64 {
	return d.projectRestricted(box2(b), w.Data, minv.DataOrNil(), x.DataOrNil())
}

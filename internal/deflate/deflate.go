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
// iteration count drops accordingly. E is small (one row per subdomain,
// at most MaxSubdomains) and is factored once by dense Cholesky; each
// coarse solve is two triangular solves. (A nested blocks-of-blocks
// hierarchy over E — the paper's "series of nested lower dimensional
// sub-spaces" — reached the same iteration counts and ran slower on
// every deck it was timed on, so it was removed.)
//
// The projector is fully distributed and dimension-agnostic: one core
// (flux.go, over flat padded indices) serves the 2D Deflation and the 3D
// Deflation3D. It never
// materialises W·λ and never runs the stencil: A·W·λ is exactly λ_c in
// block interiors and differs only by K_face·(λ_c − λ_nbr) on
// block-boundary faces, so the fine-grid half of P is one
// read-modify-write of w. The restriction Wᵀ·w is fixed-lane row sums
// folded per block in ascending row order — bit-identical for every
// worker count. E is assembled from the same face sums through a single
// comm.AllReduceSumN round that is order-deterministic on every backend,
// so each rank factors the same exactly symmetric matrix and the coarse
// solve never needs a broadcast. Block membership of halo cells comes
// from the clamped global coordinate: no halo exchange anywhere.
//
// A projection has two forms. ProjectW is a whole one — a restriction
// sweep, a reduction round of its own, the coarse solve and a correction
// sweep — which measures the projection on its own and is the tests'
// reference. The CG engine, which runs CG's and PPCG's outer iteration,
// instead takes the projection into its own pass and round, one row at a
// time: RestrictRow as its matvec
// finishes each row of w, Restriction for the rank's share of Wᵀ·w,
// which travels in the engine's scalar round, SolveCoarse on the summed b
// (returning bᵀλ, which is z·(A·W·λ) by the symmetry of A, so the engine
// needs no sweep to project its curvature), and CorrectRow or
// CorrectRowFaces as the next sweep first reads each row of w. The
// per-cell arithmetic is the same in both forms.
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

// MaxSubdomains caps the coarse-space dimension BX·BY(·BZ): E is dense,
// nc×nc, so 4096 subdomains (64² in 2D, 16³ in 3D) already hold a
// 128 MiB matrix whose factorisation takes tens of seconds.
const MaxSubdomains = 4096

// Config selects the coarse-space geometry: the block partition of the
// global mesh.
type Config struct {
	// BX, BY, BZ are the coarse subdomain counts per direction over the
	// GLOBAL mesh (BZ is ignored in 2D). Each must be at least 1 and at
	// most the global cell count in its direction, and their product at
	// most MaxSubdomains.
	BX, BY, BZ int
	// Levels must be 0 or 1, the one dense Cholesky coarse solve; a
	// larger value is an error.
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
	lay := g.Layout()
	d := &Deflation{op: op, projector: projector{
		pool: pool, c: c, dims: 2,
		n: lay.N, st: lay.St, org: lay.Org,
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
func (d *Deflation) ProjectW(w *grid.Field2D) { d.project(w.Data) }

// RestrictRow takes row k of w's interior into the restriction the next
// Restriction folds: a solver sweep hands each row over as soon as it has
// finished w there, while the row is still in cache. Rows are
// independent; any worker may hand over any row.
func (d *Deflation) RestrictRow(w *grid.Field2D, k int) { d.restrictRow(w.Data, k) }

// CorrectRow applies the correction w −= A·W·λ of the last SolveCoarse to
// the interior cells of row k, with ProjectW's per-cell arithmetic: a
// solver sweep calls it just before it first reads the row. Rows are
// independent.
func (d *Deflation) CorrectRow(w *grid.Field2D, k int) { d.correctRow(k, 0, w.Data) }

// CorrectRowFaces is the first half of CorrectRow, for a sweep that takes
// the second into its own arithmetic: it applies the correction's
// block-face terms to the interior cells of row k and returns their λ_c,
// one per cell, which the caller must take off w before anything else
// reads the row (the CG step computes s = (w − λ_c) + β·s in registers).
// Per cell the correction keeps CorrectRow's order: faces, then λ_c. The
// slice is the projector's, valid until the next coarse solve; rows are
// independent.
func (d *Deflation) CorrectRowFaces(w *grid.Field2D, k int) []float64 {
	return d.faceRow(k, 0, w.Data)
}

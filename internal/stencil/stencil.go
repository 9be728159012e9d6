// Package stencil implements TeaLeaf's matrix-free linear operator.
//
// The implicit backward-Euler discretisation of the linear heat conduction
// equation on a regular grid produces, per time step, the SPD system
//
//	A u = u⁰,   A = I + Δt·L,
//
// where L is the 5-point (2D) or 7-point (3D) finite-difference diffusion
// operator. A is never assembled: only the face conduction coefficient
// arrays Kx, Ky (and Kz) are stored, and w = A·p is computed directly from
// the mesh exactly as in Listing 1 of the paper:
//
//	w(j,k) = (1 + (Ky(j,k+1)+Ky(j,k)) + (Kx(j+1,k)+Kx(j,k)))·p(j,k)
//	       − (Ky(j,k+1)·p(j,k+1) + Ky(j,k)·p(j,k−1))
//	       − (Kx(j+1,k)·p(j+1,k) + Kx(j,k)·p(j−1,k))
//
// The diagonal is one plus the sum of the off-diagonal coefficients on the
// row, making A strictly diagonally dominant and hence SPD.
//
// Every sweep is written once, as an unexported body over a grid.Rows
// walker and the operator's face coefficients (sten, sweeps.go): 2D is
// the one-plane case, whose y neighbours are the rows of the walker's
// outer index. A sweep hands each row to a row leaf (leaves.go), and each
// kind of leaf picks its 5-point or 7-point form in one place. The
// exported Operator2D and Operator3D methods are one-statement adapters
// that build the walker and hand the body the fields' storage.
package stencil

import (
	"fmt"
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// Coefficient selects how the conduction coefficient is derived from the
// cell-centred density, matching TeaLeaf's tl_coefficient input options.
type Coefficient int

const (
	// Conductivity uses w = ρ: conduction proportional to density.
	Conductivity Coefficient = iota + 1
	// RecipConductivity uses w = 1/ρ: low-density material conducts
	// faster — the crooked-pipe configuration, where the evacuated pipe
	// transports heat ahead of the dense wall material.
	RecipConductivity
)

func (c Coefficient) String() string {
	switch c {
	case Conductivity:
		return "conductivity=density"
	case RecipConductivity:
		return "conductivity=1/density"
	}
	return fmt.Sprintf("coefficient(%d)", int(c))
}

// PhysicalSides records which sides of a (sub-)grid lie on the physical
// domain boundary, where the zero-flux condition zeroes the face
// coefficients. A rank interior to the process grid has none.
type PhysicalSides struct {
	Left, Right, Down, Up bool
}

// AllPhysical is the single-rank / global-grid case.
var AllPhysical = PhysicalSides{Left: true, Right: true, Down: true, Up: true}

// PhysicalSides3D records which faces of a 3D (sub-)grid lie on the
// physical domain boundary, where the zero-flux condition zeroes the face
// coefficients. A rank interior to the process grid has none.
type PhysicalSides3D struct {
	Left, Right, Down, Up, Back, Front bool
}

// AllPhysical3D is the single-rank / global-grid case.
var AllPhysical3D = PhysicalSides3D{Left: true, Right: true, Down: true, Up: true, Back: true, Front: true}

// walker returns the sides as the sweeps see them: 2D's y is the
// walker's outer axis, which is 3D's z, so Down and Up become Back and
// Front.
func (p PhysicalSides) walker() PhysicalSides3D {
	return PhysicalSides3D{Left: p.Left, Right: p.Right, Back: p.Down, Front: p.Up}
}

// Operator2D is the matrix-free 2D operator: face coefficient fields on
// the same padded layout as the solution fields. Kx(j,k) couples cells
// (j−1,k)↔(j,k); Ky(j,k) couples (j,k−1)↔(j,k).
type Operator2D struct {
	Grid   *grid.Grid2D
	Kx, Ky *grid.Field2D
	// Rx, Ry are the Δt/Δx², Δt/Δy² scalings baked into Kx, Ky.
	Rx, Ry float64
}

// Operator3D is the matrix-free 7-point operator for the 3D heat equation,
// the direct extension of Operator2D with a third coefficient direction.
type Operator3D struct {
	Grid       *grid.Grid3D
	Kx, Ky, Kz *grid.Field3D
	Rx, Ry, Rz float64
}

func (op *Operator2D) sten() sten {
	return sten{kx: op.Kx.Data, ky: op.Ky.Data, sy: op.Grid.Stride()}
}

func (op *Operator3D) sten() sten {
	g := op.Grid
	sy := g.NX + 2*g.Halo
	return sten{kx: op.Kx.Data, ky: op.Ky.Data, kz: op.Kz.Data, sy: sy, sz: sy * (g.NY + 2*g.Halo)}
}

// checkBuild rejects a time step or coefficient mode no operator can be
// built from.
func checkBuild(dt float64, coef Coefficient) error {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return fmt.Errorf("stencil: dt = %v must be positive and finite", dt)
	}
	if coef != Conductivity && coef != RecipConductivity {
		return fmt.Errorf("stencil: unknown coefficient mode %d", int(coef))
	}
	return nil
}

// BuildOperator2D derives the face coefficients from the cell-centred
// density. The density field must have valid halo values wherever the
// operator will be applied (reflected on physical sides, exchanged across
// rank boundaries): coefficients are computed over the whole padded
// region so the matrix-powers kernel can run on extended bounds.
//
// The face coefficient is the harmonic-mean construction TeaLeaf uses:
//
//	Kx(j,k) = rx · (w(j−1,k)+w(j,k)) / (2·w(j−1,k)·w(j,k))
//
// with w the per-cell conduction coefficient, then faces on the physical
// boundary are zeroed (zero-flux boundary condition).
func BuildOperator2D(pool *par.Pool, density *grid.Field2D, dt float64, coef Coefficient, phys PhysicalSides) (*Operator2D, error) {
	g := density.Grid
	return BuildOperator2DInto(pool, density, dt, coef, phys, grid.NewField2D(g), grid.NewField2D(g))
}

// BuildOperator2DInto is BuildOperator2D writing the face coefficients
// into kx and ky: zeroed fields on density's grid, such as an instance's
// arena slots.
func BuildOperator2DInto(pool *par.Pool, density *grid.Field2D, dt float64, coef Coefficient, phys PhysicalSides, kx, ky *grid.Field2D) (*Operator2D, error) {
	if err := checkBuild(dt, coef); err != nil {
		return nil, err
	}
	g := density.Grid
	op := &Operator2D{
		Grid: g,
		Kx:   kx,
		Ky:   ky,
		Rx:   dt / (g.DX * g.DX),
		Ry:   dt / (g.DY * g.DY),
	}
	in := g.Interior()
	err := op.sten().build(pool, g.Rows(in.Expand(g.Halo, g)), g.Rows(in), density.Data, coef == RecipConductivity, [3]float64{op.Rx, op.Ry}, phys.walker())
	if err != nil {
		return nil, err
	}
	return op, nil
}

// BuildOperator3D derives 3D face coefficients from the cell-centred
// density; see BuildOperator2D for the construction. The density must
// have valid halo values wherever the operator will be applied (reflected
// on physical faces, exchanged across rank boundaries); faces on the
// physical boundary are zeroed (zero-flux), faces on rank boundaries keep
// their neighbour-coupled coefficients so the distributed operator equals
// the global one.
func BuildOperator3D(pool *par.Pool, density *grid.Field3D, dt float64, coef Coefficient, phys PhysicalSides3D) (*Operator3D, error) {
	g := density.Grid
	return BuildOperator3DInto(pool, density, dt, coef, phys, grid.NewField3D(g), grid.NewField3D(g), grid.NewField3D(g))
}

// BuildOperator3DInto is BuildOperator3D writing the face coefficients
// into kx, ky and kz: zeroed fields on density's grid, such as an
// instance's arena slots.
func BuildOperator3DInto(pool *par.Pool, density *grid.Field3D, dt float64, coef Coefficient, phys PhysicalSides3D, kx, ky, kz *grid.Field3D) (*Operator3D, error) {
	if err := checkBuild(dt, coef); err != nil {
		return nil, err
	}
	g := density.Grid
	op := &Operator3D{
		Grid: g,
		Kx:   kx, Ky: ky, Kz: kz,
		Rx: dt / (g.DX * g.DX), Ry: dt / (g.DY * g.DY), Rz: dt / (g.DZ * g.DZ),
	}
	in := g.Interior()
	err := op.sten().build(pool, g.Rows(in.Expand(g.Halo, g)), g.Rows(in), density.Data, coef == RecipConductivity, [3]float64{op.Rx, op.Ry, op.Rz}, phys)
	if err != nil {
		return nil, err
	}
	return op, nil
}

// Apply computes w = A·p over the cells of b. p must have valid values one
// cell beyond b on every side (halo-exchanged, reflected, or inside the
// padded region covered by a deeper exchange).
func (op *Operator2D) Apply(pool *par.Pool, b grid.Bounds, p, w *grid.Field2D) {
	op.sten().apply(pool, op.Grid.Rows(b), p.Data, nil, w.Data)
}

// Apply computes w = A·p over the cells of b. p must have valid values
// one cell beyond b on every side.
func (op *Operator3D) Apply(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) {
	op.sten().apply(pool, op.Grid.Rows(b), p.Data, nil, w.Data)
}

// ApplyDot is Listing 1 exactly: w = A·p fused with the dot product
// pw = p·w in a single pass over b.
func (op *Operator2D) ApplyDot(pool *par.Pool, b grid.Bounds, p, w *grid.Field2D) float64 {
	return op.ApplyDotRows(pool, b, p, w, nil)
}

// ApplyDotRows is ApplyDot calling rows(y), when non-nil, once for each
// row y of b as soon as w's cells on it are final, from whichever worker
// computed them (the deflation projector takes its restriction sums
// there, so b must then be the interior).
func (op *Operator2D) ApplyDotRows(pool *par.Pool, b grid.Bounds, p, w *grid.Field2D, rows func(y int)) float64 {
	return op.sten().preDot(pool, fieldDot, op.Grid.Rows(b), nil, p.Data, w.Data, grid.RowFunc2D(rows))[1]
}

// ApplyDot fuses w = A·p with pw = p·w over b.
func (op *Operator3D) ApplyDot(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) float64 {
	return op.ApplyDotRows(pool, b, p, w, nil)
}

// ApplyDotRows is ApplyDot calling rows(j, k) for each row of b once w's
// cells on it are final — see Operator2D.ApplyDotRows.
func (op *Operator3D) ApplyDotRows(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D, rows func(j, k int)) float64 {
	return op.sten().preDot(pool, fieldDot, op.Grid.Rows(b), nil, p.Data, w.Data, rows)[1]
}

// ApplyPreDot is the matvec pass of the fused single-reduction CG: with
// u = minv ⊙ r the (folded diagonal-)preconditioned residual, it computes
// w = A·u and returns uw = Σ u·w in one sweep, never materialising u.
// r (and minv) must be valid one cell beyond b on every side. nil minv
// selects the identity (u = r).
func (op *Operator2D) ApplyPreDot(pool *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D) float64 {
	return op.ApplyPreDotRows(pool, b, minv, r, w, nil)
}

// ApplyPreDotRows is ApplyPreDot with ApplyDotRows' per-row callback.
func (op *Operator2D) ApplyPreDotRows(pool *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D, rows func(y int)) float64 {
	return op.sten().preDot(pool, preDotKind(minv == nil), op.Grid.Rows(b), minv.DataOrNil(), r.Data, w.Data, grid.RowFunc2D(rows))[1]
}

// ApplyPreDot is the 3D ApplyPreDot. minv must be valid one cell beyond
// b on every side, which NewJacobi3D guarantees on the padded region
// minus its outermost layer.
func (op *Operator3D) ApplyPreDot(pool *par.Pool, b grid.Bounds3D, minv *grid.Field3D, r, w *grid.Field3D) float64 {
	return op.ApplyPreDotRows(pool, b, minv, r, w, nil)
}

// ApplyPreDotRows is the 3D ApplyPreDot with ApplyDotRows' per-row
// callback.
func (op *Operator3D) ApplyPreDotRows(pool *par.Pool, b grid.Bounds3D, minv *grid.Field3D, r, w *grid.Field3D, rows func(j, k int)) float64 {
	return op.sten().preDot(pool, preDotKind(minv == nil), op.Grid.Rows(b), minv.DataOrNil(), r.Data, w.Data, rows)[1]
}

// ApplyPreDotInit is ApplyPreDot extended with the two extra dot products
// the fused CG loop needs to start up: it returns (γ, δ, rr) =
// (Σ r·u, Σ u·w, Σ r·r) for u = minv ⊙ r, w = A·u, in one sweep. nil minv
// selects the identity (γ == rr).
func (op *Operator2D) ApplyPreDotInit(pool *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D) (gamma, delta, rr float64) {
	return op.ApplyPreDotInitRows(pool, b, minv, r, w, nil)
}

// ApplyPreDotInitRows is ApplyPreDotInit with ApplyDotRows' per-row
// callback.
func (op *Operator2D) ApplyPreDotInitRows(pool *par.Pool, b grid.Bounds, minv, r, w *grid.Field2D, rows func(y int)) (gamma, delta, rr float64) {
	return unpack3(op.sten().preDot(pool, initDot, op.Grid.Rows(b), minv.DataOrNil(), r.Data, w.Data, grid.RowFunc2D(rows)))
}

// ApplyPreDotInit is the 3D ApplyPreDotInit.
func (op *Operator3D) ApplyPreDotInit(pool *par.Pool, b grid.Bounds3D, minv *grid.Field3D, r, w *grid.Field3D) (gamma, delta, rr float64) {
	return op.ApplyPreDotInitRows(pool, b, minv, r, w, nil)
}

// ApplyPreDotInitRows is the 3D ApplyPreDotInit with ApplyDotRows'
// per-row callback.
func (op *Operator3D) ApplyPreDotInitRows(pool *par.Pool, b grid.Bounds3D, minv *grid.Field3D, r, w *grid.Field3D, rows func(j, k int)) (gamma, delta, rr float64) {
	return unpack3(op.sten().preDot(pool, initDot, op.Grid.Rows(b), minv.DataOrNil(), r.Data, w.Data, rows))
}

// Residual computes r = rhs − A·u over b.
func (op *Operator2D) Residual(pool *par.Pool, b grid.Bounds, u, rhs, r *grid.Field2D) {
	op.sten().apply(pool, op.Grid.Rows(b), u.Data, rhs.Data, r.Data)
}

// Residual computes r = rhs − A·u over b.
func (op *Operator3D) Residual(pool *par.Pool, b grid.Bounds3D, u, rhs, r *grid.Field3D) {
	op.sten().apply(pool, op.Grid.Rows(b), u.Data, rhs.Data, r.Data)
}

// Diagonal writes the matrix diagonal 1 + ΣK over b into d. The stencil
// needs the face coefficients one cell beyond each cell, so b must stay
// one cell inside the padded region.
func (op *Operator2D) Diagonal(pool *par.Pool, b grid.Bounds, d *grid.Field2D) {
	op.sten().diagonal(pool, op.Grid.Rows(b), d.Data, false)
}

// Diagonal writes diag(A) over b into d; see Operator2D.Diagonal.
func (op *Operator3D) Diagonal(pool *par.Pool, b grid.Bounds3D, d *grid.Field3D) {
	op.sten().diagonal(pool, op.Grid.Rows(b), d.Data, false)
}

// InvDiagonal writes the reciprocal of the diagonal over b into d: the
// point-Jacobi preconditioner, in the same pass.
func (op *Operator2D) InvDiagonal(pool *par.Pool, b grid.Bounds, d *grid.Field2D) {
	op.sten().diagonal(pool, op.Grid.Rows(b), d.Data, true)
}

// InvDiagonal writes the reciprocal of diag(A) over b into d.
func (op *Operator3D) InvDiagonal(pool *par.Pool, b grid.Bounds3D, d *grid.Field3D) {
	op.sten().diagonal(pool, op.Grid.Rows(b), d.Data, true)
}

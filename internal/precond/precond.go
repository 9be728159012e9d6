// Package precond implements TeaLeaf's matrix-free preconditioners. All of
// them are communication-free (§IV-C1: applied "without any communication
// between neighboring processes"), which is what makes them usable inside
// the communication-avoiding CPPCG inner loop:
//
//   - None: z = r.
//   - Jacobi: z = D⁻¹r, the point-diagonal scaling.
//   - BlockJacobi: the mesh is cut into strips of 4 cells along the
//     grid.Rows walker's outer axis (y in 2D, z in 3D); each strip's 4×4
//     block of A is tridiagonal (the outer-face coupling within the strip)
//     and is solved with the Thomas algorithm. Strips at mesh or rank
//     boundaries truncate to 3, 2 or 1 cells. Typically reduces κ(A) by
//     ≈40% on TeaLeaf problems.
//
// Each preconditioner is written once, as a body over a grid.Rows walker
// and the flat storage of its fields. The 2D names (Apply over a Bounds
// of Field2Ds) and the 3D names (Apply3D over a Bounds3D of Field3Ds) are
// one-statement adapters that build the walker and hand over the data.
package precond

import (
	"fmt"
	"strings"

	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
	"tealeaf/internal/tridiag"
)

// Preconditioner applies z = M⁻¹·r over a bounds rectangle. Applications
// must be local: no communication, no reads beyond the padded region.
type Preconditioner interface {
	// Apply computes z = M⁻¹ r over b. Every implementation here is safe
	// with r == z.
	Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field2D)
	// Name returns the TeaLeaf input-deck name of the preconditioner.
	Name() string
}

// Preconditioner3D is Preconditioner over a 3D bounds box.
type Preconditioner3D interface {
	// Apply3D computes z = M⁻¹ r over b (safe with r == z).
	Apply3D(pool *par.Pool, b grid.Bounds3D, r, z *grid.Field3D)
	// Name returns the TeaLeaf input-deck name of the preconditioner.
	Name() string
}

// None is the identity preconditioner.
type None struct{}

// None3D is the 3D identity preconditioner.
type None3D struct{}

// NewNone returns the identity preconditioner.
func NewNone() None { return None{} }

// NewNone3D returns the 3D identity preconditioner.
func NewNone3D() None3D { return None3D{} }

// Apply implements Preconditioner: z = r, the kernels' copy body.
func (None) Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field2D) {
	if r != z {
		kernels.Copy(pool, b, z, r)
	}
}

// Apply3D implements Preconditioner3D: z = r.
func (None3D) Apply3D(pool *par.Pool, b grid.Bounds3D, r, z *grid.Field3D) {
	if r != z {
		kernels.Copy3D(pool, b, z, r)
	}
}

// Name implements Preconditioner.
func (None) Name() string { return "none" }

// Name implements Preconditioner3D.
func (None3D) Name() string { return "none" }

// Jacobi is the point-diagonal preconditioner z = D⁻¹r.
type Jacobi struct {
	invDiag *grid.Field2D
}

// Jacobi3D is the 3D point-diagonal preconditioner z = D⁻¹r.
type Jacobi3D struct {
	invDiag *grid.Field3D
}

// NewJacobi precomputes 1/diag(A) over the full addressable region minus
// its outermost layer, where the stencil cannot be evaluated, so the
// preconditioner remains valid on matrix-powers extended bounds.
func NewJacobi(pool *par.Pool, op *stencil.Operator2D) *Jacobi {
	return newJacobi(pool, op, grid.NewField2D(op.Grid))
}

// NewJacobi3D is NewJacobi on the 7-point operator.
func NewJacobi3D(pool *par.Pool, op *stencil.Operator3D) *Jacobi3D {
	return newJacobi3D(pool, op, grid.NewField3D(op.Grid))
}

// newJacobi is NewJacobi writing 1/diag(A) into d, a zeroed field on op's
// grid.
func newJacobi(pool *par.Pool, op *stencil.Operator2D, d *grid.Field2D) *Jacobi {
	g := op.Grid
	op.InvDiagonal(pool, g.Interior().Expand(g.Halo-1, g), d)
	return &Jacobi{invDiag: d}
}

func newJacobi3D(pool *par.Pool, op *stencil.Operator3D, d *grid.Field3D) *Jacobi3D {
	g := op.Grid
	op.InvDiagonal(pool, g.Interior().Expand(g.Halo-1, g), d)
	return &Jacobi3D{invDiag: d}
}

// Apply implements Preconditioner.
func (m *Jacobi) Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field2D) {
	scale(pool, r.Grid.Rows(b), r.Data, z.Data, m.invDiag.Data)
}

// Apply3D implements Preconditioner3D.
func (m *Jacobi3D) Apply3D(pool *par.Pool, b grid.Bounds3D, r, z *grid.Field3D) {
	scale(pool, r.Grid.Rows(b), r.Data, z.Data, m.invDiag.Data)
}

// scale is Jacobi's body: z = r ⊙ d over the rows of w.
func scale(pool *par.Pool, w grid.Rows, rd, zd, dd []float64) {
	if w.Empty() {
		return
	}
	n := w.N()
	pool.For(w.K0, w.K1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := w.J0; j < w.J1; j++ {
				o := w.Off(j, k)
				zs := zd[o : o+n]
				rs, ds := rd[o:][:len(zs)], dd[o:][:len(zs)]
				for i := range zs {
					zs[i] = rs[i] * ds[i]
				}
			}
		}
	})
}

// Name implements Preconditioner.
func (m *Jacobi) Name() string { return "jac_diag" }

// Name implements Preconditioner3D.
func (m *Jacobi3D) Name() string { return "jac_diag" }

// InvDiag returns the precomputed 1/diag(A) field, valid over the padded
// region minus its outermost layer. The fused solver loops fold this
// field directly into their sweeps instead of calling Apply.
func (m *Jacobi) InvDiag() *grid.Field2D { return m.invDiag }

// InvDiag3D is InvDiag for the 3D solve paths.
func (m *Jacobi3D) InvDiag3D() *grid.Field3D { return m.invDiag }

// FoldableDiag returns (diagonal-field, true) if m is a pure diagonal
// scaling z = d ⊙ r, which the fused single-reduction solver paths fold
// into their stencil and update sweeps for free instead of spending a
// separate grid pass on Apply: nil for the identity, the inverse diagonal
// for Jacobi. Block preconditioners are not foldable.
func FoldableDiag(m Preconditioner) (*grid.Field2D, bool) {
	switch m := m.(type) {
	case None:
		return nil, true
	case *Jacobi:
		return m.invDiag, true
	}
	return nil, false
}

// FoldableDiag3D is FoldableDiag for the 3D preconditioners.
func FoldableDiag3D(m Preconditioner3D) (*grid.Field3D, bool) {
	switch m := m.(type) {
	case None3D:
		return nil, true
	case *Jacobi3D:
		return m.invDiag, true
	}
	return nil, false
}

// DefaultBlockSize is TeaLeaf's JAC_BLOCK_SIZE: strips of four cells.
const DefaultBlockSize = 4

// BlockJacobi solves an independent tridiagonal system per 4-cell strip
// along y.
type BlockJacobi struct{ strips }

// BlockJacobi3D is BlockJacobi on the 7-point operator: its strips run
// along z, coupled by Kz. Like the 2D form it is communication-free but
// needs fresh whole-strip data every application, so it is not
// matrix-powers deep-halo compatible.
type BlockJacobi3D struct{ strips }

// NewBlockJacobi builds the strip preconditioner. blockSize <= 0 selects
// the TeaLeaf default of 4.
func NewBlockJacobi(pool *par.Pool, op *stencil.Operator2D, blockSize int) *BlockJacobi {
	return newBlockJacobi(pool, op, grid.NewField2D(op.Grid), blockSize)
}

// NewBlockJacobi3D builds the z-strip preconditioner. blockSize <= 0
// selects the TeaLeaf default of 4.
func NewBlockJacobi3D(pool *par.Pool, op *stencil.Operator3D, blockSize int) *BlockJacobi3D {
	return newBlockJacobi3D(pool, op, grid.NewField3D(op.Grid), blockSize)
}

// newBlockJacobi is NewBlockJacobi writing diag(A) into d, a zeroed field
// on op's grid.
func newBlockJacobi(pool *par.Pool, op *stencil.Operator2D, d *grid.Field2D, blockSize int) *BlockJacobi {
	g := op.Grid
	op.Diagonal(pool, g.Interior().Expand(g.Halo-1, g), d)
	return &BlockJacobi{newStrips(d.Data, op.Ky.Data, blockSize)}
}

func newBlockJacobi3D(pool *par.Pool, op *stencil.Operator3D, d *grid.Field3D, blockSize int) *BlockJacobi3D {
	g := op.Grid
	op.Diagonal(pool, g.Interior().Expand(g.Halo-1, g), d)
	return &BlockJacobi3D{newStrips(d.Data, op.Kz.Data, blockSize)}
}

// Apply implements Preconditioner (see strips.apply).
func (m *BlockJacobi) Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field2D) {
	m.apply(pool, r.Grid.Rows(b), r.Data, z.Data)
}

// Apply3D implements Preconditioner3D (see strips.apply).
func (m *BlockJacobi3D) Apply3D(pool *par.Pool, b grid.Bounds3D, r, z *grid.Field3D) {
	m.apply(pool, r.Grid.Rows(b), r.Data, z.Data)
}

// strips is the block preconditioner in either dimension: the diagonal of
// A over the padded region minus its outermost layer, the operator's face
// coefficient along the walker's outer axis (Ky in 2D, Kz in 3D), and the
// strip length.
type strips struct {
	diag, outer []float64
	blockSize   int
}

func newStrips(diag, outer []float64, blockSize int) strips {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return strips{diag: diag, outer: outer, blockSize: blockSize}
}

// Name implements Preconditioner and Preconditioner3D.
func (strips) Name() string { return "jac_block" }

// BlockSize returns the strip length.
func (s strips) BlockSize() int { return s.blockSize }

// apply is the strip solve. The outer indices [K0, K1) of w are cut into
// strips of blockSize anchored at K0 (the last truncated at K1), and each
// cell column (i, j) of a strip is one tridiagonal system
//
//	[ d(k0)       −K(k0+1)                ]
//	[ −K(k0+1)    d(k0+1)    −K(k0+2)     ]  ...
//
// with K the outer face coefficient, solved by the Thomas algorithm.
// Strips never couple across w's edge, which is what makes the
// preconditioner communication-free, and each column is buffered before
// its solution is written back, so r and z may alias. The pool splits
// the outer axis; a band solves the strips anchored in it, so every strip
// is solved whole by one worker.
func (s strips) apply(pool *par.Pool, w grid.Rows, rd, zd []float64) {
	if w.Empty() {
		return
	}
	bs, n := s.blockSize, w.N()
	pool.For(w.K0, w.K1, func(k0, k1 int) {
		sub := make([]float64, bs)
		dia := make([]float64, bs)
		sup := make([]float64, bs)
		rhs := make([]float64, bs)
		sol := make([]float64, bs)
		wrk := make([]float64, bs)
		off := make([]int, bs)
		for a := w.K0 + (k0-w.K0+bs-1)/bs*bs; a < k1; a += bs {
			m := min(bs, w.K1-a)
			for j := w.J0; j < w.J1; j++ {
				for t := range m {
					off[t] = w.Off(j, a+t)
				}
				for i := range n {
					for t := range m {
						c := off[t] + i
						dia[t] = s.diag[c]
						sub[t], sup[t] = 0, 0
						if t > 0 {
							sub[t] = -s.outer[c]
						}
						if t < m-1 {
							sup[t] = -s.outer[off[t+1]+i]
						}
						rhs[t] = rd[c]
					}
					// The blocks are strictly diagonally dominant, so
					// Thomas cannot fail on well-formed operators; a
					// failure would mean a corrupted coefficient field,
					// which the operator build already rejects.
					if err := tridiag.Thomas(sub[:m], dia[:m], sup[:m], rhs[:m], sol[:m], wrk[:m]); err != nil {
						panic(fmt.Sprintf("precond: block solve failed: %v", err))
					}
					for t := range m {
						zd[off[t]+i] = sol[t]
					}
				}
			}
		}
	})
}

// Spec is one entry of the unified preconditioner registry: the deck name
// plus the capability the solver's option validation consults. The
// registry is the single source of truth for which names exist — the 2D
// and 3D FromName constructors and the solver's validation all read it,
// so a new preconditioner is added in exactly one place.
type Spec struct {
	// Name is the TeaLeaf input-deck name (tl_preconditioner_type).
	Name string
	// DeepHalo reports compatibility with matrix-powers halo depth > 1.
	// Block solves need fresh whole-strip data every application, which
	// would force an exchange per inner step and cancel the matrix-powers
	// benefit (§IV-C2), so they are not deep-halo compatible.
	DeepHalo bool
	// Field reports that the preconditioner holds one grid-sized field
	// (jac_diag's 1/diag(A), jac_block's diag(A)).
	Field bool
	// Folds reports a diagonal scaling that FoldableDiag hands the fused
	// solver sweeps to fold, so a CG solve never materialises z = M⁻¹r.
	Folds bool
}

// registry lists every preconditioner in deck-name order.
var registry = []Spec{
	{Name: "none", DeepHalo: true, Folds: true},
	{Name: "jac_diag", DeepHalo: true, Field: true, Folds: true},
	{Name: "jac_block", DeepHalo: false, Field: true},
}

// Specs returns the registry in deck-name order (a copy).
func Specs() []Spec {
	return append([]Spec(nil), registry...)
}

// Lookup finds the registry entry for a deck name. The empty name is the
// identity, matching the deck default.
func Lookup(name string) (Spec, bool) {
	if name == "" {
		name = "none"
	}
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns every registered deck name.
func Names() []string {
	var out []string
	for _, s := range registry {
		out = append(out, s.Name)
	}
	return out
}

// lookup resolves a deck name; the error for an unknown one lists every
// registered name.
func lookup(name string) (Spec, error) {
	s, ok := Lookup(name)
	if !ok {
		return Spec{}, fmt.Errorf("precond: unknown preconditioner %q (supported: %s)",
			name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// FromName builds the 2D preconditioner named by a TeaLeaf input deck
// value (tl_preconditioner_type), consulting the unified registry.
func FromName(name string, pool *par.Pool, op *stencil.Operator2D) (Preconditioner, error) {
	return FromNameInto(name, pool, op, nil)
}

// FromNameInto is FromName building the preconditioner's field
// (Spec.Field) in d, a zeroed field on op's grid such as an instance's
// arena slot; a nil d allocates it.
func FromNameInto(name string, pool *par.Pool, op *stencil.Operator2D, d *grid.Field2D) (Preconditioner, error) {
	s, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if s.Field && d == nil {
		d = grid.NewField2D(op.Grid)
	}
	switch s.Name {
	case "none":
		return NewNone(), nil
	case "jac_diag":
		return newJacobi(pool, op, d), nil
	case "jac_block":
		return newBlockJacobi(pool, op, d, DefaultBlockSize), nil
	}
	return nil, fmt.Errorf("precond: %q is registered but has no constructor", s.Name)
}

// FromName3D builds the 3D preconditioner named by a TeaLeaf input-deck
// value, consulting the same registry as FromName.
func FromName3D(name string, pool *par.Pool, op *stencil.Operator3D) (Preconditioner3D, error) {
	return FromName3DInto(name, pool, op, nil)
}

// FromName3DInto is FromNameInto on the 7-point operator.
func FromName3DInto(name string, pool *par.Pool, op *stencil.Operator3D, d *grid.Field3D) (Preconditioner3D, error) {
	s, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if s.Field && d == nil {
		d = grid.NewField3D(op.Grid)
	}
	switch s.Name {
	case "none":
		return NewNone3D(), nil
	case "jac_diag":
		return newJacobi3D(pool, op, d), nil
	case "jac_block":
		return newBlockJacobi3D(pool, op, d, DefaultBlockSize), nil
	}
	return nil, fmt.Errorf("precond: %q is registered but has no constructor", s.Name)
}

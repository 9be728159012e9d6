package precond

import (
	"fmt"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
	"tealeaf/internal/tridiag"
)

// Preconditioner3D applies z = M⁻¹·r over a 3D bounds box. Applications
// must be local: no communication, no reads beyond the padded region —
// the same §IV-C1 constraint as the 2D preconditioners, which is what
// makes them usable inside the communication-avoiding inner loop.
type Preconditioner3D interface {
	// Apply3D computes z = M⁻¹ r over b (safe with r == z).
	Apply3D(pool *par.Pool, b grid.Bounds3D, r, z *grid.Field3D)
	// Name returns the TeaLeaf input-deck name of the preconditioner.
	Name() string
}

// None3D is the identity preconditioner.
type None3D struct{}

// NewNone3D returns the identity preconditioner.
func NewNone3D() None3D { return None3D{} }

// Apply3D implements Preconditioner3D: z = r.
func (None3D) Apply3D(pool *par.Pool, b grid.Bounds3D, r, z *grid.Field3D) {
	if r == z {
		return
	}
	g := r.Grid
	rd, zd := r.Data, z.Data
	pool.For(b.Z0, b.Z1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				lo, hi := g.Index(b.X0, j, k), g.Index(b.X1, j, k)
				copy(zd[lo:hi], rd[lo:hi])
			}
		}
	})
}

// Name implements Preconditioner3D.
func (None3D) Name() string { return "none" }

// Jacobi3D is the 3D point-diagonal preconditioner z = D⁻¹r.
type Jacobi3D struct {
	invDiag *grid.Field3D
}

// NewJacobi3D precomputes 1/diag(A) over the full addressable region
// (minus the outermost layer, where the stencil cannot be evaluated), so
// the preconditioner remains valid on matrix-powers extended bounds.
func NewJacobi3D(pool *par.Pool, op *stencil.Operator3D) *Jacobi3D {
	g := op.Grid
	d := grid.NewField3D(g)
	inner := grid.Bounds3D{
		X0: -g.Halo + 1, X1: g.NX + g.Halo - 1,
		Y0: -g.Halo + 1, Y1: g.NY + g.Halo - 1,
		Z0: -g.Halo + 1, Z1: g.NZ + g.Halo - 1,
	}
	op.InvDiagonal(pool, inner, d)
	return &Jacobi3D{invDiag: d}
}

// Apply3D implements Preconditioner3D.
func (m *Jacobi3D) Apply3D(pool *par.Pool, b grid.Bounds3D, r, z *grid.Field3D) {
	g := r.Grid
	rd, zd, dd := r.Data, z.Data, m.invDiag.Data
	pool.For(b.Z0, b.Z1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				base := g.Index(0, j, k)
				for i := b.X0; i < b.X1; i++ {
					zd[base+i] = rd[base+i] * dd[base+i]
				}
			}
		}
	})
}

// Name implements Preconditioner3D.
func (m *Jacobi3D) Name() string { return "jac_diag" }

// InvDiag3D returns the precomputed 1/diag(A) field, valid over the
// padded region minus its outermost layer. It implements
// DiagonalFoldable3D: the fused 3D solver loops fold this field directly
// into their sweeps instead of calling Apply3D.
func (m *Jacobi3D) InvDiag3D() *grid.Field3D { return m.invDiag }

// DiagonalFoldable3D is implemented by 3D preconditioners that are a pure
// diagonal scaling z = d ⊙ r, foldable into fused sweeps for free.
type DiagonalFoldable3D interface {
	InvDiag3D() *grid.Field3D
}

// FoldableDiag3D returns (diagonal-field, true) if m can be folded into
// fused sweeps: nil for the identity, the inverse diagonal for Jacobi3D.
func FoldableDiag3D(m Preconditioner3D) (*grid.Field3D, bool) {
	if _, isNone := m.(None3D); isNone {
		return nil, true
	}
	if f, ok := m.(DiagonalFoldable3D); ok {
		return f.InvDiag3D(), true
	}
	return nil, false
}

// BlockJacobi3D is the 3D block preconditioner: each vertical z-line is
// cut into strips of blockSize cells, and each strip's block of A —
// tridiagonal through the Kz coupling within the line — is solved with
// the Thomas algorithm, exactly the 2D BlockJacobi construction rotated
// into z. Like its 2D twin it is communication-free (strips never couple
// across the bounds edge) but needs fresh whole-strip data every
// application, so it is not matrix-powers deep-halo compatible.
type BlockJacobi3D struct {
	op        *stencil.Operator3D
	diag      *grid.Field3D // full diagonal of A, precomputed
	blockSize int
}

// NewBlockJacobi3D builds the z-line strip preconditioner. blockSize <= 0
// selects the TeaLeaf default of 4.
func NewBlockJacobi3D(pool *par.Pool, op *stencil.Operator3D, blockSize int) *BlockJacobi3D {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	g := op.Grid
	d := grid.NewField3D(g)
	inner := grid.Bounds3D{
		X0: -g.Halo + 1, X1: g.NX + g.Halo - 1,
		Y0: -g.Halo + 1, Y1: g.NY + g.Halo - 1,
		Z0: -g.Halo + 1, Z1: g.NZ + g.Halo - 1,
	}
	op.Diagonal(pool, inner, d)
	return &BlockJacobi3D{op: op, diag: d, blockSize: blockSize}
}

// Apply3D implements Preconditioner3D: for every (i,j) column in b, the
// z-range is cut into strips of blockSize anchored at b.Z0 (truncated at
// b.Z1), and each strip's tridiagonal block
//
//	[ diag(i,j,k)    −Kz(i,j,k+1)                 ]
//	[ −Kz(i,j,k+1)   diag(i,j,k+1)  −Kz(i,j,k+2)  ]  ...
//
// is solved by the Thomas algorithm. Safe with r == z: each strip is
// buffered before the solution is written back.
func (m *BlockJacobi3D) Apply3D(pool *par.Pool, b grid.Bounds3D, r, z *grid.Field3D) {
	if b.Empty() {
		return
	}
	kz := m.op.Kz
	bs := m.blockSize
	// Parallelise over y rows: every (i,j) column's strips are independent,
	// and each worker gets its own scratch.
	pool.For(b.Y0, b.Y1, func(j0, j1 int) {
		sub := make([]float64, bs)
		dia := make([]float64, bs)
		sup := make([]float64, bs)
		rhs := make([]float64, bs)
		sol := make([]float64, bs)
		wrk := make([]float64, bs)
		for j := j0; j < j1; j++ {
			for i := b.X0; i < b.X1; i++ {
				for k0 := b.Z0; k0 < b.Z1; k0 += bs {
					k1 := min(k0+bs, b.Z1)
					n := k1 - k0
					for t := 0; t < n; t++ {
						k := k0 + t
						dia[t] = m.diag.At(i, j, k)
						if t > 0 {
							sub[t] = -kz.At(i, j, k)
						} else {
							sub[t] = 0
						}
						if t < n-1 {
							sup[t] = -kz.At(i, j, k+1)
						} else {
							sup[t] = 0
						}
						rhs[t] = r.At(i, j, k)
					}
					// Strictly diagonally dominant blocks: Thomas can only
					// fail on coefficient fields Build already rejects.
					if err := tridiag.Thomas(sub[:n], dia[:n], sup[:n], rhs[:n], sol[:n], wrk[:n]); err != nil {
						panic(fmt.Sprintf("precond: 3D block solve failed: %v", err))
					}
					for t := 0; t < n; t++ {
						z.Set(i, j, k0+t, sol[t])
					}
				}
			}
		}
	})
}

// Name implements Preconditioner3D.
func (m *BlockJacobi3D) Name() string { return "jac_block" }

// BlockSize returns the z-strip length.
func (m *BlockJacobi3D) BlockSize() int { return m.blockSize }

// FromName3D builds the 3D preconditioner named by a TeaLeaf input-deck
// value, consulting the same registry as the 2D FromName; errors
// enumerate the supported names and any dimensionality restriction.
func FromName3D(name string, pool *par.Pool, op *stencil.Operator3D) (Preconditioner3D, error) {
	s, err := lookupFor(name, 3)
	if err != nil {
		return nil, err
	}
	switch s.Name {
	case "none":
		return NewNone3D(), nil
	case "jac_diag":
		return NewJacobi3D(pool, op), nil
	case "jac_block":
		return NewBlockJacobi3D(pool, op, DefaultBlockSize), nil
	}
	return nil, fmt.Errorf("precond: %q is registered but has no 3D constructor", s.Name)
}

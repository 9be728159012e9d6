// Package precond implements TeaLeaf's matrix-free preconditioners. All of
// them are communication-free (§IV-C1: applied "without any communication
// between neighboring processes"), which is what makes them usable inside
// the communication-avoiding CPPCG inner loop:
//
//   - None: z = r.
//   - Jacobi: z = D⁻¹r, the point-diagonal scaling.
//   - BlockJacobi: the mesh is split into 4×1 strips in y; each strip's
//     4×4 block of A is tridiagonal (the Ky coupling within the strip) and
//     is solved with the Thomas algorithm. Strips at mesh or rank
//     boundaries truncate to 3, 2 or 1 rows. Typically reduces κ(A) by
//     ≈40% on TeaLeaf problems.
package precond

import (
	"fmt"
	"strings"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
	"tealeaf/internal/tridiag"
)

// Preconditioner applies z = M⁻¹·r over a bounds rectangle. Applications
// must be local: no communication, no reads beyond the padded region.
type Preconditioner interface {
	// Apply computes z = M⁻¹ r over b. r and z must not alias unless the
	// implementation documents it as safe (all implementations here are
	// safe with r == z except BlockJacobi, which is also safe because it
	// buffers each strip).
	Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field2D)
	// Name returns the TeaLeaf input-deck name of the preconditioner.
	Name() string
}

// None is the identity preconditioner.
type None struct{}

// NewNone returns the identity preconditioner.
func NewNone() None { return None{} }

// Apply implements Preconditioner: z = r.
func (None) Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field2D) {
	if r == z {
		return
	}
	g := r.Grid
	rd, zd := r.Data, z.Data
	pool.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			lo, hi := g.Index(b.X0, k), g.Index(b.X1, k)
			copy(zd[lo:hi], rd[lo:hi])
		}
	})
}

// Name implements Preconditioner.
func (None) Name() string { return "none" }

// Jacobi is the point-diagonal preconditioner z = D⁻¹r.
type Jacobi struct {
	invDiag *grid.Field2D
}

// NewJacobi precomputes 1/diag(A) over the full addressable region (minus
// the outermost layer, where the stencil cannot be evaluated), so the
// preconditioner remains valid on matrix-powers extended bounds.
func NewJacobi(pool *par.Pool, op *stencil.Operator2D) *Jacobi {
	g := op.Grid
	d := grid.NewField2D(g)
	inner := grid.Bounds{X0: -g.Halo + 1, X1: g.NX + g.Halo - 1, Y0: -g.Halo + 1, Y1: g.NY + g.Halo - 1}
	op.InvDiagonal(pool, inner, d)
	return &Jacobi{invDiag: d}
}

// Apply implements Preconditioner.
func (m *Jacobi) Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field2D) {
	g := r.Grid
	rd, zd, dd := r.Data, z.Data, m.invDiag.Data
	pool.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			base := g.Index(0, k)
			for j := b.X0; j < b.X1; j++ {
				zd[base+j] = rd[base+j] * dd[base+j]
			}
		}
	})
}

// Name implements Preconditioner.
func (m *Jacobi) Name() string { return "jac_diag" }

// InvDiag returns the precomputed 1/diag(A) field, valid over the padded
// region minus its outermost layer. It implements DiagonalFoldable: the
// fused solver loops fold this field directly into their sweeps instead
// of calling Apply.
func (m *Jacobi) InvDiag() *grid.Field2D { return m.invDiag }

// DiagonalFoldable is implemented by preconditioners that are a pure
// diagonal scaling z = d ⊙ r. The fused single-reduction solver paths
// fold such preconditioners into their stencil and update sweeps for
// free, instead of spending a separate grid pass on Apply. None is
// foldable with a nil field (identity).
type DiagonalFoldable interface {
	InvDiag() *grid.Field2D
}

// FoldableDiag returns (diagonal-field, true) if m can be folded into
// fused sweeps: nil for the identity, the inverse diagonal for Jacobi.
// Block preconditioners are not foldable.
func FoldableDiag(m Preconditioner) (*grid.Field2D, bool) {
	if _, isNone := m.(None); isNone {
		return nil, true
	}
	if f, ok := m.(DiagonalFoldable); ok {
		return f.InvDiag(), true
	}
	return nil, false
}

// DefaultBlockSize is TeaLeaf's JAC_BLOCK_SIZE: strips of four cells.
const DefaultBlockSize = 4

// BlockJacobi solves an independent tridiagonal system per 4×1 strip.
type BlockJacobi struct {
	op        *stencil.Operator2D
	diag      *grid.Field2D // full diagonal of A, precomputed
	blockSize int
}

// NewBlockJacobi builds the strip preconditioner. blockSize <= 0 selects
// the TeaLeaf default of 4.
func NewBlockJacobi(pool *par.Pool, op *stencil.Operator2D, blockSize int) *BlockJacobi {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	g := op.Grid
	d := grid.NewField2D(g)
	inner := grid.Bounds{X0: -g.Halo + 1, X1: g.NX + g.Halo - 1, Y0: -g.Halo + 1, Y1: g.NY + g.Halo - 1}
	op.Diagonal(pool, inner, d)
	return &BlockJacobi{op: op, diag: d, blockSize: blockSize}
}

// Apply implements Preconditioner: for every column j in b, rows are cut
// into strips of blockSize anchored at b.Y0 (truncated at b.Y1), and each
// strip's tridiagonal block
//
//	[ diag(j,k)   −Ky(j,k+1)                ]
//	[ −Ky(j,k+1)  diag(j,k+1)  −Ky(j,k+2)   ]  ...
//
// is solved by the Thomas algorithm. Strips never couple across b's edge,
// which is what makes the preconditioner communication-free.
func (m *BlockJacobi) Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field2D) {
	if b.Empty() {
		return
	}
	ky := m.op.Ky
	bs := m.blockSize
	// Parallelise over columns: strips are independent, and each worker
	// gets its own scratch.
	pool.For(b.X0, b.X1, func(j0, j1 int) {
		sub := make([]float64, bs)
		dia := make([]float64, bs)
		sup := make([]float64, bs)
		rhs := make([]float64, bs)
		sol := make([]float64, bs)
		wrk := make([]float64, bs)
		for j := j0; j < j1; j++ {
			for k0 := b.Y0; k0 < b.Y1; k0 += bs {
				k1 := min(k0+bs, b.Y1)
				n := k1 - k0
				for i := 0; i < n; i++ {
					k := k0 + i
					dia[i] = m.diag.At(j, k)
					if i > 0 {
						sub[i] = -ky.At(j, k)
					} else {
						sub[i] = 0
					}
					if i < n-1 {
						sup[i] = -ky.At(j, k+1)
					} else {
						sup[i] = 0
					}
					rhs[i] = r.At(j, k)
				}
				// The blocks are strictly diagonally dominant, so Thomas
				// cannot fail on well-formed operators; a failure would
				// indicate a corrupted coefficient field, which Build
				// already rejects.
				if err := tridiag.Thomas(sub[:n], dia[:n], sup[:n], rhs[:n], sol[:n], wrk[:n]); err != nil {
					panic(fmt.Sprintf("precond: block solve failed: %v", err))
				}
				for i := 0; i < n; i++ {
					z.Set(j, k0+i, sol[i])
				}
			}
		}
	})
}

// Name implements Preconditioner.
func (m *BlockJacobi) Name() string { return "jac_block" }

// BlockSize returns the strip length.
func (m *BlockJacobi) BlockSize() int { return m.blockSize }

// Spec is one entry of the unified preconditioner registry: the deck name
// plus the capability flags both solve paths consult. The registry is the
// single source of truth for which names exist, which dimensionalities
// they support, and which solver configurations they compose with — the
// 2D and 3D FromName constructors and the solver's option validation all
// read it, so a new preconditioner is added in exactly one place.
type Spec struct {
	// Name is the TeaLeaf input-deck name (tl_preconditioner_type).
	Name string
	// Summary is a one-line description for error messages and docs.
	Summary string
	// Dims2, Dims3 report which dimensionalities implement the entry.
	Dims2, Dims3 bool
	// Foldable reports a pure diagonal scaling: the fused single-reduction
	// loops fold it into their sweeps (see DiagonalFoldable) instead of
	// spending a separate grid pass.
	Foldable bool
	// CommFree reports that applications need no communication (§IV-C1);
	// every registered preconditioner is comm-free today, which is what
	// makes them usable inside the communication-avoiding inner loop.
	CommFree bool
	// DeepHalo reports compatibility with matrix-powers halo depth > 1.
	// Block solves need fresh whole-strip data every application, which
	// would force an exchange per inner step and cancel the matrix-powers
	// benefit (§IV-C2), so they are not deep-halo compatible.
	DeepHalo bool
}

// registry lists every preconditioner in deck-name order.
var registry = []Spec{
	{Name: "none", Summary: "identity (z = r)",
		Dims2: true, Dims3: true, Foldable: true, CommFree: true, DeepHalo: true},
	{Name: "jac_diag", Summary: "point-diagonal Jacobi (z = D⁻¹r)",
		Dims2: true, Dims3: true, Foldable: true, CommFree: true, DeepHalo: true},
	{Name: "jac_block", Summary: "tridiagonal block-Jacobi (4-cell y-strips in 2D, z-lines in 3D)",
		Dims2: true, Dims3: true, Foldable: false, CommFree: true, DeepHalo: false},
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

// Names returns the deck names supported for the given dimensionality
// (2 or 3); any other value returns every registered name.
func Names(dims int) []string {
	var out []string
	for _, s := range registry {
		if (dims == 2 && !s.Dims2) || (dims == 3 && !s.Dims3) {
			continue
		}
		out = append(out, s.Name)
	}
	return out
}

// lookupFor resolves a deck name for one dimensionality, with errors that
// enumerate what IS supported: an unknown name lists every registered
// name, and a known name unavailable in the requested dimensionality says
// so and lists that dimensionality's names.
func lookupFor(name string, dims int) (Spec, error) {
	s, ok := Lookup(name)
	if !ok {
		return Spec{}, fmt.Errorf("precond: unknown preconditioner %q (supported: %s)",
			name, strings.Join(Names(0), ", "))
	}
	if (dims == 2 && !s.Dims2) || (dims == 3 && !s.Dims3) {
		return Spec{}, fmt.Errorf("precond: %q (%s) is not available on the %dD path (supported in %dD: %s)",
			s.Name, s.Summary, dims, dims, strings.Join(Names(dims), ", "))
	}
	return s, nil
}

// FromName builds the 2D preconditioner named by a TeaLeaf input deck
// value (tl_preconditioner_type), consulting the unified registry.
func FromName(name string, pool *par.Pool, op *stencil.Operator2D) (Preconditioner, error) {
	s, err := lookupFor(name, 2)
	if err != nil {
		return nil, err
	}
	switch s.Name {
	case "none":
		return NewNone(), nil
	case "jac_diag":
		return NewJacobi(pool, op), nil
	case "jac_block":
		return NewBlockJacobi(pool, op, DefaultBlockSize), nil
	}
	return nil, fmt.Errorf("precond: %q is registered but has no 2D constructor", s.Name)
}

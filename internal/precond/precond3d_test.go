package precond

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

func testOperator3D(t *testing.T, n, halo int) *stencil.Operator3D {
	t.Helper()
	g := grid.UnitGrid3D(n, n, n, halo)
	den := grid.NewField3D(g)
	rng := rand.New(rand.NewSource(42))
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				den.Set(i, j, k, 0.5+rng.Float64()*4)
			}
		}
	}
	den.ReflectHalos(halo)
	op, err := stencil.BuildOperator3D(par.Serial, den, 0.05, stencil.Conductivity, stencil.AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestJacobi3DInvertsDiagonal(t *testing.T) {
	op := testOperator3D(t, 6, 2)
	g := op.Grid
	m := NewJacobi3D(par.Serial, op)
	d := grid.NewField3D(g)
	op.Diagonal(par.Serial, g.Interior(), d)
	r := grid.NewField3D(g)
	r.Fill(1)
	z := grid.NewField3D(g)
	m.Apply3D(par.Serial, g.Interior(), r, z)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				if math.Abs(z.At(i, j, k)*d.At(i, j, k)-1) > 1e-14 {
					t.Fatalf("z·diag != 1 at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	// The inverse diagonal must be valid one layer beyond the interior
	// (matrix-powers extended bounds read it there).
	if m.InvDiag3D().At(-1, 2, 2) == 0 || m.InvDiag3D().At(g.NX, 2, 2) == 0 {
		t.Error("InvDiag3D must cover the padded region minus its outermost layer")
	}
}

func TestFoldableDiag3D(t *testing.T) {
	op := testOperator3D(t, 4, 2)
	if f, ok := FoldableDiag3D(NewNone3D()); !ok || f != nil {
		t.Error("identity folds to nil")
	}
	m := NewJacobi3D(par.Serial, op)
	if f, ok := FoldableDiag3D(m); !ok || f != m.InvDiag3D() {
		t.Error("jacobi folds to its inverse diagonal")
	}
}

func TestFromName3D(t *testing.T) {
	op := testOperator3D(t, 4, 2)
	for name, want := range map[string]string{
		"": "none", "none": "none", "jac_diag": "jac_diag", "jac_block": "jac_block",
	} {
		m, err := FromName3D(name, par.Serial, op)
		if err != nil || m.Name() != want {
			t.Errorf("FromName3D(%q) = %v, %v", name, m, err)
		}
	}
	_, err := FromName3D("bogus", par.Serial, op)
	if err == nil {
		t.Fatal("unknown names must error")
	}
	// The error must enumerate every supported name so the user can fix
	// the deck without reading source.
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not mention supported name %q", err, name)
		}
	}
}

// TestBlockJacobi3DSolvesStrips verifies M·z = r block by block: within
// every z-strip the tridiagonal system (diag, −Kz) must be satisfied
// exactly, and strips must not couple across their ends.
func TestBlockJacobi3DSolvesStrips(t *testing.T) {
	op := testOperator3D(t, 6, 2)
	g := op.Grid
	m := NewBlockJacobi3D(par.Serial, op, 4)
	if m.BlockSize() != 4 {
		t.Fatalf("block size = %d, want 4", m.BlockSize())
	}
	diag := grid.NewField3D(g)
	op.Diagonal(par.Serial, g.Interior(), diag)

	rng := rand.New(rand.NewSource(7))
	r := grid.NewField3D(g)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				r.Set(i, j, k, rng.Float64()*2-1)
			}
		}
	}
	z := grid.NewField3D(g)
	m.Apply3D(par.Serial, g.Interior(), r, z)

	bs := m.BlockSize()
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			for k0 := 0; k0 < g.NZ; k0 += bs {
				k1 := min(k0+bs, g.NZ)
				for k := k0; k < k1; k++ {
					got := diag.At(i, j, k) * z.At(i, j, k)
					if k > k0 {
						got -= op.Kz.At(i, j, k) * z.At(i, j, k-1)
					}
					if k < k1-1 {
						got -= op.Kz.At(i, j, k+1) * z.At(i, j, k+1)
					}
					if math.Abs(got-r.At(i, j, k)) > 1e-12 {
						t.Fatalf("strip residual %v at (%d,%d,%d)", got-r.At(i, j, k), i, j, k)
					}
				}
			}
		}
	}
}

// Aliased application (r == z) must give the same answer as the
// non-aliased one: each strip is buffered before the write-back.
func TestBlockJacobi3DAliasSafe(t *testing.T) {
	op := testOperator3D(t, 5, 2)
	g := op.Grid
	m := NewBlockJacobi3D(par.Serial, op, 0) // 0 → default block size
	r := grid.NewField3D(g)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				r.Set(i, j, k, float64((i*7+j*3+k)%11)-5)
			}
		}
	}
	z := grid.NewField3D(g)
	m.Apply3D(par.Serial, g.Interior(), r, z)
	aliased := r.Clone()
	m.Apply3D(par.Serial, g.Interior(), aliased, aliased)
	if d := aliased.MaxDiff(z); d > 0 {
		t.Errorf("aliased application differs by %v", d)
	}
	// Not a diagonal scaling: must not be foldable into fused sweeps.
	if _, ok := FoldableDiag3D(m); ok {
		t.Error("BlockJacobi3D must not report as diagonal-foldable")
	}
}

func TestNone3DCopies(t *testing.T) {
	g := grid.UnitGrid3D(4, 4, 4, 1)
	r := grid.NewField3D(g)
	r.Fill(3)
	z := grid.NewField3D(g)
	NewNone3D().Apply3D(par.Serial, g.Interior(), r, z)
	if z.At(2, 2, 2) != 3 {
		t.Error("None3D must copy")
	}
	NewNone3D().Apply3D(par.Serial, g.Interior(), r, r) // aliased: no-op, no panic
}

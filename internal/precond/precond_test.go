package precond

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

func testOperator(t *testing.T, nx, ny, halo int, seed int64) *stencil.Operator2D {
	t.Helper()
	g := grid.UnitGrid2D(nx, ny, halo)
	d := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < ny; k++ {
		for j := 0; j < nx; j++ {
			d.Set(j, k, 0.2+rng.Float64()*5)
		}
	}
	d.ReflectHalos(halo)
	op, err := stencil.BuildOperator2D(par.Serial, d, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func randomField(g *grid.Grid2D, seed int64) *grid.Field2D {
	f := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			f.Set(j, k, rng.Float64()*2-1)
		}
	}
	return f
}

func TestNoneIsIdentity(t *testing.T) {
	op := testOperator(t, 8, 8, 2, 1)
	g := op.Grid
	r := randomField(g, 2)
	z := grid.NewField2D(g)
	NewNone().Apply(par.Serial, g.Interior(), r, z)
	if !z.ApproxEqual(r, 0) {
		t.Error("None must copy r into z")
	}
	// Aliased call is a no-op.
	NewNone().Apply(par.Serial, g.Interior(), r, r)
	if NewNone().Name() != "none" {
		t.Error("name")
	}
}

func TestJacobiMatchesDiagonal(t *testing.T) {
	op := testOperator(t, 10, 10, 2, 3)
	g := op.Grid
	m := NewJacobi(par.Serial, op)
	r := randomField(g, 4)
	z := grid.NewField2D(g)
	m.Apply(par.Serial, g.Interior(), r, z)
	d := grid.NewField2D(g)
	op.Diagonal(par.Serial, g.Interior(), d)
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			want := r.At(j, k) / d.At(j, k)
			if math.Abs(z.At(j, k)-want) > 1e-14 {
				t.Fatalf("Jacobi(%d,%d) = %v, want %v", j, k, z.At(j, k), want)
			}
		}
	}
	if m.Name() != "jac_diag" {
		t.Error("name")
	}
}

// blockResidual checks that within every strip, M·z == r exactly: the
// strip rows of A restricted to the strip (diagonal + intra-strip Ky
// coupling) reproduce r.
func blockResidual(t *testing.T, op *stencil.Operator2D, b grid.Bounds, bs int, r, z *grid.Field2D) float64 {
	t.Helper()
	g := op.Grid
	d := grid.NewField2D(g)
	op.Diagonal(par.Serial, b, d)
	var worst float64
	for j := b.X0; j < b.X1; j++ {
		for k0 := b.Y0; k0 < b.Y1; k0 += bs {
			k1 := min(k0+bs, b.Y1)
			for k := k0; k < k1; k++ {
				v := d.At(j, k) * z.At(j, k)
				if k > k0 {
					v -= op.Ky.At(j, k) * z.At(j, k-1)
				}
				if k < k1-1 {
					v -= op.Ky.At(j, k+1) * z.At(j, k+1)
				}
				if res := math.Abs(v - r.At(j, k)); res > worst {
					worst = res
				}
			}
		}
	}
	return worst
}

func TestBlockJacobiSolvesStrips(t *testing.T) {
	op := testOperator(t, 12, 11, 2, 5) // NY=11 exercises truncated strips (4,4,3)
	g := op.Grid
	m := NewBlockJacobi(par.Serial, op, 4)
	r := randomField(g, 6)
	z := grid.NewField2D(g)
	m.Apply(par.Serial, g.Interior(), r, z)
	if worst := blockResidual(t, op, g.Interior(), 4, r, z); worst > 1e-12 {
		t.Errorf("strip residual = %v", worst)
	}
	if m.Name() != "jac_block" || m.BlockSize() != 4 {
		t.Error("metadata wrong")
	}
}

func TestBlockJacobiTruncatedStrips(t *testing.T) {
	// NY = 5: strips of 4 and 1; NY = 6: strips 4,2; NY = 3: single strip 3.
	for _, ny := range []int{3, 5, 6, 7} {
		op := testOperator(t, 6, ny, 1, int64(10+ny))
		g := op.Grid
		m := NewBlockJacobi(par.Serial, op, 4)
		r := randomField(g, int64(20+ny))
		z := grid.NewField2D(g)
		m.Apply(par.Serial, g.Interior(), r, z)
		if worst := blockResidual(t, op, g.Interior(), 4, r, z); worst > 1e-12 {
			t.Errorf("ny=%d: strip residual = %v", ny, worst)
		}
	}
}

func TestBlockJacobiParallelMatchesSerial(t *testing.T) {
	op := testOperator(t, 16, 13, 2, 7)
	g := op.Grid
	m := NewBlockJacobi(par.Serial, op, 4)
	r := randomField(g, 8)
	z1 := grid.NewField2D(g)
	z2 := grid.NewField2D(g)
	m.Apply(par.Serial, g.Interior(), r, z1)
	m.Apply(par.NewPool(4).WithGrain(1), g.Interior(), r, z2)
	if z1.MaxDiff(z2) != 0 {
		t.Errorf("parallel apply differs: %v", z1.MaxDiff(z2))
	}
}

func TestBlockJacobiDefaultSize(t *testing.T) {
	op := testOperator(t, 8, 8, 1, 9)
	if NewBlockJacobi(par.Serial, op, 0).BlockSize() != DefaultBlockSize {
		t.Error("default block size must be 4")
	}
}

// TestPreconditionersImproveResidual verifies the preconditioners act like
// approximate inverses: ||I - M⁻¹A|| applied to a random vector contracts
// relative to ||v|| more than the unpreconditioned residual of the
// identity does. Weak but implementation-independent sanity check.
func TestPreconditionersApproximateInverse(t *testing.T) {
	op := testOperator(t, 16, 16, 2, 11)
	g := op.Grid
	b := g.Interior()
	v := randomField(g, 12)
	av := grid.NewField2D(g)
	op.Apply(par.Serial, b, v, av)

	normV := math.Sqrt(kernels.Dot(par.Serial, b, v, v))
	// Baseline: how far A itself is from the identity on this vector.
	baseErr := diffNorm(b, av, v) / normV
	for _, m := range []Preconditioner{NewJacobi(par.Serial, op), NewBlockJacobi(par.Serial, op, 4)} {
		z := grid.NewField2D(g)
		m.Apply(par.Serial, b, av, z) // z = M⁻¹ A v ≈ v
		relErr := diffNorm(b, z, v) / normV
		if relErr >= baseErr {
			t.Errorf("%s: ||M⁻¹Av - v||/||v|| = %v, no better than unpreconditioned %v",
				m.Name(), relErr, baseErr)
		}
	}
}

// diffNorm returns ‖x − y‖ over b.
func diffNorm(b grid.Bounds, x, y *grid.Field2D) float64 {
	var s float64
	for k := b.Y0; k < b.Y1; k++ {
		for j := b.X0; j < b.X1; j++ {
			d := x.At(j, k) - y.At(j, k)
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// TestBlockJacobiSymmetric checks that M⁻¹ is symmetric: <M⁻¹x, y> ==
// <x, M⁻¹y>. PCG requires an SPD preconditioner.
func TestBlockJacobiSymmetric(t *testing.T) {
	op := testOperator(t, 10, 9, 1, 13)
	g := op.Grid
	b := g.Interior()
	for _, m := range []Preconditioner{NewJacobi(par.Serial, op), NewBlockJacobi(par.Serial, op, 4)} {
		x := randomField(g, 14)
		y := randomField(g, 15)
		mx := grid.NewField2D(g)
		my := grid.NewField2D(g)
		m.Apply(par.Serial, b, x, mx)
		m.Apply(par.Serial, b, y, my)
		lhs := kernels.Dot(par.Serial, b, mx, y)
		rhs := kernels.Dot(par.Serial, b, x, my)
		if math.Abs(lhs-rhs) > 1e-12*math.Max(1, math.Abs(lhs)) {
			t.Errorf("%s not symmetric: %v vs %v", m.Name(), lhs, rhs)
		}
	}
}

func TestFromName(t *testing.T) {
	op := testOperator(t, 6, 6, 1, 16)
	for name, want := range map[string]string{
		"":          "none",
		"none":      "none",
		"jac_diag":  "jac_diag",
		"jac_block": "jac_block",
	} {
		m, err := FromName(name, par.Serial, op)
		if err != nil {
			t.Fatalf("FromName(%q): %v", name, err)
		}
		if m.Name() != want {
			t.Errorf("FromName(%q).Name() = %q, want %q", name, m.Name(), want)
		}
	}
	_, err := FromName("bogus", par.Serial, op)
	if err == nil {
		t.Fatal("unknown name must error")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not mention supported name %q", err, name)
		}
	}
}

// The registry is the single source of truth: every entry must be
// constructible in both dimensionalities, and the diagonal folding the
// fused loops rely on (Folds), the deep-halo capability the solver's
// option validation reads and the field an instance sizes its arena by
// (Field: every preconditioner but the identity) must be what each
// preconditioner is.
func TestRegistryCapabilities(t *testing.T) {
	op := testOperator(t, 6, 6, 1, 16)
	op3 := testOperator3D(t, 4, 1)
	want := map[string]struct{ foldable, deepHalo bool }{
		"none":      {true, true},
		"jac_diag":  {true, true},
		"jac_block": {false, false},
	}
	if len(Specs()) != len(want) || len(Names()) != len(want) {
		t.Fatalf("registry has %d specs and %d names, want %d", len(Specs()), len(Names()), len(want))
	}
	for _, s := range Specs() {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected registry entry %q", s.Name)
			continue
		}
		if s.DeepHalo != w.deepHalo || s.Folds != w.foldable || s.Field != (s.Name != "none") {
			t.Errorf("%s: registry DeepHalo=%v Folds=%v Field=%v, want %v %v %v",
				s.Name, s.DeepHalo, s.Folds, s.Field, w.deepHalo, w.foldable, s.Name != "none")
		}
		m, err := FromName(s.Name, par.Serial, op)
		if err != nil {
			t.Errorf("%s: FromName: %v", s.Name, err)
		} else if _, foldable := FoldableDiag(m); foldable != w.foldable {
			t.Errorf("%s: FoldableDiag says %v, want %v", s.Name, foldable, w.foldable)
		}
		m3, err := FromName3D(s.Name, par.Serial, op3)
		if err != nil {
			t.Errorf("%s: FromName3D: %v", s.Name, err)
		} else if _, foldable := FoldableDiag3D(m3); foldable != w.foldable {
			t.Errorf("%s: FoldableDiag3D says %v, want %v", s.Name, foldable, w.foldable)
		}
	}
	if _, ok := Lookup(""); !ok {
		t.Error("empty name must resolve to the identity entry")
	}
}

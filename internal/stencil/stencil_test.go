package stencil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
)

// uniformDensity builds a density field of constant rho with reflected halos.
func uniformDensity(g *grid.Grid2D, rho float64) *grid.Field2D {
	d := grid.NewField2D(g)
	d.Fill(rho)
	return d
}

func randomDensity(g *grid.Grid2D, seed int64) *grid.Field2D {
	d := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			d.Set(j, k, 0.1+rng.Float64()*9.9)
		}
	}
	d.ReflectHalos(g.Halo)
	return d
}

func randomField(g *grid.Grid2D, seed int64) *grid.Field2D {
	f := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.Float64()*2 - 1
	}
	return f
}

// positiveField returns a field of values in (0.5, 1.5) over the whole
// padded region, usable as a Jacobi-style minv.
func positiveField(g *grid.Grid2D, seed int64) *grid.Field2D {
	f := randomField(g, seed)
	for i, v := range f.Data {
		f.Data[i] = 1 + v/2
	}
	return f
}

func TestBuildValidation(t *testing.T) {
	g := grid.UnitGrid2D(4, 4, 2)
	d := uniformDensity(g, 1)
	if _, err := BuildOperator2D(par.Serial, d, 0, Conductivity, AllPhysical); err == nil {
		t.Error("zero dt must error")
	}
	if _, err := BuildOperator2D(par.Serial, d, math.NaN(), Conductivity, AllPhysical); err == nil {
		t.Error("NaN dt must error")
	}
	if _, err := BuildOperator2D(par.Serial, d, 0.1, Coefficient(9), AllPhysical); err == nil {
		t.Error("bad coefficient mode must error")
	}
	dBad := uniformDensity(g, 1)
	dBad.Set(1, 1, -2)
	if _, err := BuildOperator2D(par.Serial, dBad, 0.1, Conductivity, AllPhysical); err == nil {
		t.Error("negative density must error")
	}
}

func TestCoefficientValuesUniform(t *testing.T) {
	// For uniform density rho, interior faces carry
	// Kx = rx·(2rho)/(2rho²) = rx/rho (Conductivity mode).
	g := grid.MustGrid2D(8, 8, 2, 0, 8, 0, 8) // dx = dy = 1
	d := uniformDensity(g, 2.0)
	dt := 0.5
	op, err := BuildOperator2D(par.Serial, d, dt, Conductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	want := dt / 2.0 // rx/rho with rx = dt/dx² = dt
	if got := op.Kx.At(3, 3); math.Abs(got-want) > 1e-14 {
		t.Errorf("interior Kx = %v, want %v", got, want)
	}
	// RecipConductivity: w = 1/rho = 0.5 → Kx = rx·(1)/(2·0.25) = 2·rx/… :
	// rx·(w+w)/(2w²) = rx/w = rx·rho.
	op2, err := BuildOperator2D(par.Serial, d, dt, RecipConductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := op2.Kx.At(3, 3), dt*2.0; math.Abs(got-want) > 1e-14 {
		t.Errorf("recip Kx = %v, want %v", got, want)
	}
}

func TestPhysicalBoundaryFacesZeroed(t *testing.T) {
	g := grid.UnitGrid2D(6, 6, 2)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 1), 0.01, Conductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if op.Kx.At(0, k) != 0 {
			t.Errorf("left face Kx(0,%d) = %v, want 0", k, op.Kx.At(0, k))
		}
		if op.Kx.At(6, k) != 0 {
			t.Errorf("right face Kx(6,%d) = %v, want 0", k, op.Kx.At(6, k))
		}
	}
	for j := 0; j < 6; j++ {
		if op.Ky.At(j, 0) != 0 {
			t.Errorf("bottom face Ky(%d,0) = %v, want 0", j, op.Ky.At(j, 0))
		}
		if op.Ky.At(j, 6) != 0 {
			t.Errorf("top face Ky(%d,6) = %v, want 0", j, op.Ky.At(j, 6))
		}
	}
	// Interior faces are positive.
	if op.Kx.At(3, 3) <= 0 || op.Ky.At(3, 3) <= 0 {
		t.Error("interior faces must be positive")
	}
}

func TestNoPhysicalSidesKeepsHaloFaces(t *testing.T) {
	// A rank in the middle of the process grid keeps nonzero coefficients
	// across its halo: the matrix-powers kernel computes there.
	g := grid.UnitGrid2D(6, 6, 3)
	d := randomDensity(g, 2)
	op, err := BuildOperator2D(par.Serial, d, 0.01, Conductivity, PhysicalSides{})
	if err != nil {
		t.Fatal(err)
	}
	if op.Kx.At(0, 2) == 0 || op.Kx.At(6, 2) == 0 {
		t.Error("interior-rank boundary faces must not be zeroed")
	}
	if op.Kx.At(-2, 2) == 0 {
		t.Error("halo faces must carry coefficients for matrix powers")
	}
}

func TestRowSumsAreOne(t *testing.T) {
	// A·1 = 1 for the global operator: off-diagonals cancel the diagonal
	// excess, row sums are exactly the identity part.
	g := grid.UnitGrid2D(10, 7, 2)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 3), 0.05, RecipConductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	ones, w := grid.NewField2D(g), grid.NewField2D(g)
	ones.Fill(1)
	op.Apply(par.Serial, g.Interior(), ones, w)
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			if d := math.Abs(w.At(j, k) - 1); d > 1e-13 {
				t.Errorf("|row sum - 1| at (%d,%d) = %v", j, k, d)
			}
		}
	}
}

func TestOperatorSymmetric(t *testing.T) {
	// <Ap, q> == <p, Aq> on the interior for the global operator.
	g := grid.UnitGrid2D(12, 9, 2)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 4), 0.02, Conductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Interior()
	p := randomField(g, 5)
	q := randomField(g, 6)
	// Zero the halos: symmetry holds for vectors supported on the
	// interior (boundary faces are zero so halo values are never felt,
	// but zeroing makes the test exact).
	zeroHalos(p)
	zeroHalos(q)
	ap := grid.NewField2D(g)
	aq := grid.NewField2D(g)
	op.Apply(par.Serial, b, p, ap)
	op.Apply(par.Serial, b, q, aq)
	lhs := kernels.Dot(par.Serial, b, ap, q)
	rhs := kernels.Dot(par.Serial, b, p, aq)
	if math.Abs(lhs-rhs) > 1e-12*math.Max(1, math.Abs(lhs)) {
		t.Errorf("asymmetry: <Ap,q>=%v <p,Aq>=%v", lhs, rhs)
	}
}

func zeroHalos(f *grid.Field2D) {
	g := f.Grid
	for k := -g.Halo; k < g.NY+g.Halo; k++ {
		for j := -g.Halo; j < g.NX+g.Halo; j++ {
			if !g.InInterior(j, k) {
				f.Set(j, k, 0)
			}
		}
	}
}

func TestOperatorPositiveDefinite(t *testing.T) {
	// <p, Ap> > 0 for p ≠ 0: A = I + dt·L with L PSD.
	g := grid.UnitGrid2D(8, 8, 1)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 7), 0.1, Conductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Interior()
	f := func(seed int64) bool {
		p := randomField(g, seed)
		zeroHalos(p)
		w := grid.NewField2D(g)
		op.Apply(par.Serial, b, p, w)
		pap := kernels.Dot(par.Serial, b, p, w)
		pp := kernels.Dot(par.Serial, b, p, p)
		// Also <p,Ap> >= <p,p> since L is PSD.
		return pap > 0 && pap >= pp-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDotMatchesApply holds ApplyDot's w to Apply's bit for bit and
// its p·w to the kernels' dot, on the interior, a ragged box (width 15)
// and the depth-1 extended box, on 1, 2, 4 and 7 workers.
func TestApplyDotMatchesApply(t *testing.T) {
	g := grid.UnitGrid2D(17, 13, 2)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 21), 0.03, RecipConductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	p := randomField(g, 22)
	for _, b := range []grid.Bounds{g.Interior(), {X0: 1, X1: 16, Y0: 3, Y1: 8}, g.Interior().Expand(1, g)} {
		w1 := grid.NewField2D(g)
		op.Apply(par.Serial, b, p, w1)
		want := kernels.Dot(par.Serial, b, p, w1)
		for name, pool := range map[string]*par.Pool{
			"w1": par.NewPool(1), "w2": par.NewPool(2).WithGrain(1),
			"w4": par.NewPool(4).WithGrain(1), "w7": par.NewPool(7).WithGrain(1),
		} {
			w2 := grid.NewField2D(g)
			got := op.ApplyDot(pool, b, p, w2)
			if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Errorf("%s %v: ApplyDot = %v, want %v", name, b, got, want)
			}
			if i := sameBits(w2.Data, w1.Data); i >= 0 {
				j, k := g.Coords(i)
				t.Errorf("%s %v: fused w differs at (%d,%d)", name, b, j, k)
			}
			pool.Close()
		}
	}
}

func TestResidual(t *testing.T) {
	g := grid.UnitGrid2D(9, 9, 1)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 10), 0.02, Conductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Interior()
	u := randomField(g, 11)
	rhs := randomField(g, 12)
	r := grid.NewField2D(g)
	op.Residual(par.Serial, b, u, rhs, r)
	// r + A·u must equal rhs.
	au := grid.NewField2D(g)
	op.Apply(par.Serial, b, u, au)
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			if math.Abs(r.At(j, k)+au.At(j, k)-rhs.At(j, k)) > 1e-13 {
				t.Fatalf("residual identity broken at (%d,%d)", j, k)
			}
		}
	}
}

func TestDiagonalDominance(t *testing.T) {
	g := grid.UnitGrid2D(10, 10, 1)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 13), 0.08, Conductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	d := grid.NewField2D(g)
	op.Diagonal(par.Serial, g.Interior(), d)
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			off := op.Kx.At(j, k) + op.Kx.At(j+1, k) + op.Ky.At(j, k) + op.Ky.At(j, k+1)
			if d.At(j, k) <= off {
				t.Fatalf("row (%d,%d) not strictly dominant: diag %v, off %v", j, k, d.At(j, k), off)
			}
			if math.Abs(d.At(j, k)-(1+off)) > 1e-13 {
				t.Fatalf("diag (%d,%d) = %v, want 1+%v", j, k, d.At(j, k), off)
			}
		}
	}
}

func TestApplyOnExpandedBounds(t *testing.T) {
	// Matrix powers: applying A on bounds expanded by d must give the same
	// interior values as applying on the interior (coefficients and p are
	// valid in the halo).
	g := grid.UnitGrid2D(8, 8, 4)
	d := randomDensity(g, 14)
	op, err := BuildOperator2D(par.Serial, d, 0.05, Conductivity, PhysicalSides{})
	if err != nil {
		t.Fatal(err)
	}
	p := randomField(g, 15)
	w1 := grid.NewField2D(g)
	w2 := grid.NewField2D(g)
	op.Apply(par.Serial, g.Interior(), p, w1)
	op.Apply(par.Serial, g.Interior().Expand(3, g), p, w2)
	b := g.Interior()
	for k := b.Y0; k < b.Y1; k++ {
		for j := b.X0; j < b.X1; j++ {
			if math.Abs(w1.At(j, k)-w2.At(j, k)) > 1e-14 {
				t.Fatalf("expanded-bounds apply differs at (%d,%d)", j, k)
			}
		}
	}
}

func TestCoefficientString(t *testing.T) {
	if Conductivity.String() == "" || RecipConductivity.String() == "" || Coefficient(5).String() == "" {
		t.Error("String must be non-empty")
	}
}

func TestApplyPreDotMatchesComposed(t *testing.T) {
	g := grid.UnitGrid2D(15, 11, 2)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 31), 0.04, Conductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	// A positive diagonal-scaling field valid over the padded-1 region,
	// like precond.Jacobi's inverse diagonal.
	minv := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(32))
	for k := -g.Halo + 1; k < g.NY+g.Halo-1; k++ {
		for j := -g.Halo + 1; j < g.NX+g.Halo-1; j++ {
			minv.Set(j, k, 0.2+rng.Float64())
		}
	}
	r := randomField(g, 33)
	in := g.Interior()

	// Reference: u = minv⊙r over the one-cell-extended interior, then
	// w = A·u and the dots over the interior.
	u := grid.NewField2D(g)
	ext := in.Expand(1, g)
	for k := ext.Y0; k < ext.Y1; k++ {
		for j := ext.X0; j < ext.X1; j++ {
			u.Set(j, k, minv.At(j, k)*r.At(j, k))
		}
	}
	wRef := grid.NewField2D(g)
	op.Apply(par.Serial, in, u, wRef)
	wantUW := kernels.Dot(par.Serial, in, u, wRef)
	wantGamma := kernels.Dot(par.Serial, in, r, u)
	wantRR := kernels.Dot(par.Serial, in, r, r)

	for name, pool := range map[string]*par.Pool{
		"w1": par.NewPool(1), "w2": par.NewPool(2).WithGrain(1),
		"w4": par.NewPool(4).WithGrain(1), "w7": par.NewPool(7).WithGrain(1),
	} {
		w := grid.NewField2D(g)
		uw := op.ApplyPreDot(pool, in, minv, r, w)
		if math.Abs(uw-wantUW) > 1e-12*math.Max(1, math.Abs(wantUW)) {
			t.Errorf("%s: ApplyPreDot = %v, want %v", name, uw, wantUW)
		}
		for k := in.Y0; k < in.Y1; k++ {
			for j := in.X0; j < in.X1; j++ {
				if math.Abs(w.At(j, k)-wRef.At(j, k)) > 1e-13*math.Max(1, math.Abs(wRef.At(j, k))) {
					t.Fatalf("%s: w differs at (%d,%d): %v vs %v", name, j, k, w.At(j, k), wRef.At(j, k))
				}
			}
		}

		w2 := grid.NewField2D(g)
		gamma, delta, rr := op.ApplyPreDotInit(pool, in, minv, r, w2)
		if math.Abs(gamma-wantGamma) > 1e-12*math.Max(1, math.Abs(wantGamma)) ||
			math.Abs(delta-wantUW) > 1e-12*math.Max(1, math.Abs(wantUW)) ||
			math.Abs(rr-wantRR) > 1e-12*math.Max(1, math.Abs(wantRR)) {
			t.Errorf("%s: ApplyPreDotInit = (%v,%v,%v), want (%v,%v,%v)",
				name, gamma, delta, rr, wantGamma, wantUW, wantRR)
		}
	}

	// nil minv: identity reduces to ApplyDot / (r·r, r·Ar, r·r).
	w := grid.NewField2D(g)
	wantID := op.ApplyDot(par.Serial, in, r, w)
	w2 := grid.NewField2D(g)
	if got := op.ApplyPreDot(par.Serial, in, nil, r, w2); math.Abs(got-wantID) > 1e-12*math.Abs(wantID) {
		t.Errorf("identity ApplyPreDot = %v, want %v", got, wantID)
	}
	gamma, delta, rr := op.ApplyPreDotInit(par.Serial, in, nil, r, w2)
	if gamma != rr || math.Abs(delta-wantID) > 1e-12*math.Abs(wantID) {
		t.Errorf("identity ApplyPreDotInit = (%v,%v,%v)", gamma, delta, rr)
	}
}

// TestApplyPreDotShapes holds the one-shot ApplyPreDot to the composed
// reference (u = minv ⊙ r materialised, w = A·u, Σ u·w) on meshes from
// a single cell through thin strips to several bands, with and
// without a diagonal scaling, serially and on three workers.
func TestApplyPreDotShapes(t *testing.T) {
	shapes := []struct{ nx, ny int }{
		{17, 13}, {23, 9}, {35, 5}, {1, 1}, {2, 7}, {7, 2}, {3, 3}, {1, 9},
	}
	w3 := par.NewPool(3).WithGrain(1)
	defer w3.Close()
	for _, sh := range shapes {
		g := grid.UnitGrid2D(sh.nx, sh.ny, 2)
		op, err := BuildOperator2D(par.Serial, randomDensity(g, 1), 0.04, Conductivity, AllPhysical)
		if err != nil {
			t.Fatal(err)
		}
		r := randomField(g, 2)
		in := g.Interior()
		for _, minv := range []*grid.Field2D{nil, positiveField(g, 3)} {
			u := r.Clone()
			if minv != nil {
				for i := range u.Data {
					u.Data[i] = minv.Data[i] * r.Data[i]
				}
			}
			wRef := grid.NewField2D(g)
			op.Apply(par.Serial, in, u, wRef)
			want := kernels.Dot(par.Serial, in, u, wRef)
			for name, pool := range map[string]*par.Pool{"serial": par.Serial, "w3": w3} {
				w := grid.NewField2D(g)
				got := op.ApplyPreDot(pool, in, minv, r, w)
				if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
					t.Errorf("%dx%d minv=%v %s: ApplyPreDot = %g, want %g", sh.nx, sh.ny, minv != nil, name, got, want)
				}
				for k := 0; k < g.NY; k++ {
					for j := 0; j < g.NX; j++ {
						if d := math.Abs(w.At(j, k) - wRef.At(j, k)); d > 1e-13*(1+math.Abs(wRef.At(j, k))) {
							t.Fatalf("%dx%d minv=%v %s: w(%d,%d) = %g, want %g",
								sh.nx, sh.ny, minv != nil, name, j, k, w.At(j, k), wRef.At(j, k))
						}
					}
				}
			}
		}
	}
}

package kernels

import (
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// The fusion contract: every fused kernel matches the composition of its
// unfused equivalents to within 1e-13 (relative), across pool sizes
// {1, 2, 4, 7} and odd-shaped bounds rectangles. Fused kernels use
// different accumulator associations than the naive loops, so exact
// equality is not expected — but 1e-13 over O(10³)-cell rectangles of
// O(1) values leaves no room for indexing bugs.

// fusionPools is the satellite-test pool ladder.
func fusionPools() map[string]*par.Pool {
	return map[string]*par.Pool{
		"w1": par.NewPool(1),
		"w2": par.NewPool(2).WithGrain(1),
		"w4": par.NewPool(4).WithGrain(1),
		"w7": par.NewPool(7).WithGrain(1),
	}
}

// fusionBounds are deliberately odd rectangles (including offsets and
// single-row/column strips) over a 19×13 halo-2 grid.
func fusionBounds(g *grid.Grid2D) []grid.Bounds {
	return []grid.Bounds{
		g.Interior(),
		{X0: 1, X1: 18, Y0: 1, Y1: 12},
		{X0: 3, X1: 10, Y0: 5, Y1: 6},
		{X0: 7, X1: 8, Y0: 0, Y1: 13},
		{X0: 0, X1: 5, Y0: 9, Y1: 13},
		g.Interior().Expand(1, g),
	}
}

func close13(a, b float64) bool {
	return math.Abs(a-b) <= 1e-13*math.Max(1, math.Abs(b))
}

func fieldsClose13(t *testing.T, name string, got, want *grid.Field2D) {
	t.Helper()
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-13*math.Max(1, math.Abs(want.Data[i])) {
			j, k := got.Grid.Coords(i)
			t.Fatalf("%s: field differs at (%d,%d): %v vs %v", name, j, k, got.Data[i], want.Data[i])
		}
	}
}

func TestAxpyAxpyMatchesTwoAxpys(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 2)
	x1 := testField(g, 41)
	x2 := testField(g, 42)
	for _, b := range fusionBounds(g) {
		for name, p := range fusionPools() {
			y1Ref, y2Ref := testField(g, 43), testField(g, 44)
			Axpy(par.Serial, b, 0.7, x1, y1Ref)
			Axpy(par.Serial, b, -1.3, x2, y2Ref)
			y1, y2 := testField(g, 43), testField(g, 44)
			AxpyAxpy(p, b, 0.7, x1, y1, -1.3, x2, y2)
			fieldsClose13(t, name+" y1", y1, y1Ref)
			fieldsClose13(t, name+" y2", y2, y2Ref)
		}
	}
}

func TestAxpbyPreMatchesMulAxpby(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 2)
	minv := testField(g, 51)
	r := testField(g, 52)
	for _, b := range fusionBounds(g) {
		for name, p := range fusionPools() {
			yRef := testField(g, 53)
			z := grid.NewField2D(g)
			mulRef(b, minv, r, z)
			tmp := grid.NewField2D(g)
			axpbyRef(b, 0.9, yRef, 0.4, z, tmp)
			Copy(par.Serial, b, yRef, tmp)

			y := testField(g, 53)
			AxpbyPre(p, b, 0.9, y, 0.4, minv, r)
			fieldsClose13(t, name, y, yRef)

			// Identity variant.
			yID := testField(g, 54)
			yIDRef := testField(g, 54)
			axpbyRef(b, 0.9, yIDRef, 0.4, r, tmp)
			Copy(par.Serial, b, yIDRef, tmp)
			AxpbyPre(p, b, 0.9, yID, 0.4, nil, r)
			fieldsClose13(t, name+" identity", yID, yIDRef)
		}
	}
}

func TestFusedCGDirectionsMatchesComposed(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 2)
	minv := testField(g, 61)
	r := testField(g, 62)
	w := testField(g, 63)
	const beta = 0.37
	for _, b := range fusionBounds(g) {
		for name, pool := range fusionPools() {
			// Reference: u = minv⊙r; p = u + β·p; s = w + β·s.
			u := grid.NewField2D(g)
			mulRef(b, minv, r, u)
			pRef, sRef := testField(g, 64), testField(g, 65)
			Xpay(par.Serial, b, u, beta, pRef)
			Xpay(par.Serial, b, w, beta, sRef)

			p, s := testField(g, 64), testField(g, 65)
			FusedCGDirections(pool, b, minv, r, w, beta, p, s)
			fieldsClose13(t, name+" p", p, pRef)
			fieldsClose13(t, name+" s", s, sRef)

			// Identity variant.
			pID, sID := testField(g, 66), testField(g, 67)
			pIDRef, sIDRef := testField(g, 66), testField(g, 67)
			Xpay(par.Serial, b, r, beta, pIDRef)
			Xpay(par.Serial, b, w, beta, sIDRef)
			FusedCGDirections(pool, b, nil, r, w, beta, pID, sID)
			fieldsClose13(t, name+" p id", pID, pIDRef)
			fieldsClose13(t, name+" s id", sID, sIDRef)
		}
	}
}

func TestFusedCGUpdateMatchesComposed(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 2)
	minv := testField(g, 71)
	pv := testField(g, 72)
	sv := testField(g, 73)
	const alpha = 0.21
	for _, b := range fusionBounds(g) {
		for name, pool := range fusionPools() {
			// Reference: x += α·p; r −= α·s; u = minv⊙r; γ = r·u; rr = r·r.
			xRef, rRef := testField(g, 74), testField(g, 75)
			Axpy(par.Serial, b, alpha, pv, xRef)
			Axpy(par.Serial, b, -alpha, sv, rRef)
			u := grid.NewField2D(g)
			mulRef(b, minv, rRef, u)
			gammaRef := Dot(par.Serial, b, rRef, u)
			rrRef := Dot(par.Serial, b, rRef, rRef)

			x, r := testField(g, 74), testField(g, 75)
			gamma, rr := FusedCGUpdate(pool, b, alpha, pv, sv, x, r, minv)
			if !close13(gamma, gammaRef) || !close13(rr, rrRef) {
				t.Errorf("%s %v: (γ,rr) = (%v,%v), want (%v,%v)", name, b, gamma, rr, gammaRef, rrRef)
			}
			fieldsClose13(t, name+" x", x, xRef)
			fieldsClose13(t, name+" r", r, rRef)

			// Identity: γ == rr.
			xID, rID := testField(g, 74), testField(g, 75)
			gID, rrID := FusedCGUpdate(pool, b, alpha, pv, sv, xID, rID, nil)
			if gID != rrID {
				t.Errorf("%s: identity γ %v != rr %v", name, gID, rrID)
			}
			if !close13(rrID, rrRef) {
				t.Errorf("%s: identity rr = %v, want %v", name, rrID, rrRef)
			}
		}
	}
}

func TestFusedPPCGInnerMatchesComposed(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 3)
	minv := testField(g, 81)
	w := testField(g, 82)
	in := g.Interior()
	const alpha, beta = 0.83, 0.29
	// Matrix-powers style: extended bounds ⊇ interior, plus the plain
	// interior case.
	for _, b := range []grid.Bounds{in, in.Expand(1, g), in.Expand(2, g)} {
		for name, pool := range fusionPools() {
			// Reference: rtemp −= w; zscr = minv⊙rtemp; sd = α·sd + β·zscr
			// (all over b); z += sd (interior only).
			rtempRef, sdRef, zRef := testField(g, 83), testField(g, 84), testField(g, 85)
			Axpy(par.Serial, b, -1, w, rtempRef)
			zscr := grid.NewField2D(g)
			mulRef(b, minv, rtempRef, zscr)
			tmp := grid.NewField2D(g)
			axpbyRef(b, alpha, sdRef, beta, zscr, tmp)
			Copy(par.Serial, b, sdRef, tmp)
			Axpy(par.Serial, in, 1, sdRef, zRef)

			rtemp, sd, z := testField(g, 83), testField(g, 84), testField(g, 85)
			FusedPPCGInner(pool, b, in, alpha, beta, w, rtemp, minv, sd, z)
			fieldsClose13(t, name+" rtemp", rtemp, rtempRef)
			fieldsClose13(t, name+" sd", sd, sdRef)
			fieldsClose13(t, name+" z", z, zRef)
		}
	}
}

func TestFused3DKernelsMatchComposed(t *testing.T) {
	g3, err := grid.NewGrid3D(11, 7, 5, 1, 0, 1, 0, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) *grid.Field3D {
		f := grid.NewField3D(g3)
		rng := newRng(seed)
		for i := range f.Data {
			f.Data[i] = rng.Float64()*2 - 1
		}
		return f
	}
	r, w := mk(1), mk(2)
	in := g3.Interior()
	const alpha, beta = 0.31, 0.73
	for name, pool := range fusionPools() {
		// Directions: p = r + β·p; s = w + β·s.
		pRef, sRef := mk(3), mk(4)
		Xpay3D(par.Serial, in, r, beta, pRef)
		Xpay3D(par.Serial, in, w, beta, sRef)
		p, s := mk(3), mk(4)
		FusedCGDirections3D(pool, in, nil, r, w, beta, p, s)
		for i := range p.Data {
			if math.Abs(p.Data[i]-pRef.Data[i]) > 1e-13 || math.Abs(s.Data[i]-sRef.Data[i]) > 1e-13 {
				t.Fatalf("%s: 3D directions differ at %d", name, i)
			}
		}

		// Update: x += α·p; r −= α·s; rr (identity: γ == rr).
		xRef, rRef := mk(5), mk(6)
		Axpy3D(par.Serial, in, alpha, p, xRef)
		Axpy3D(par.Serial, in, -alpha, s, rRef)
		rrRef := Dot3D(par.Serial, in, rRef, rRef)
		x, rr2 := mk(5), mk(6)
		gamma, rr := FusedCGUpdate3D(pool, in, alpha, p, s, x, rr2, nil)
		if !close13(rr, rrRef) || !close13(gamma, rrRef) {
			t.Errorf("%s: 3D (γ,rr) = (%v,%v), want %v", name, gamma, rr, rrRef)
		}
		for i := range x.Data {
			if math.Abs(x.Data[i]-xRef.Data[i]) > 1e-13 || math.Abs(rr2.Data[i]-rRef.Data[i]) > 1e-13 {
				t.Fatalf("%s: 3D update differs at %d", name, i)
			}
		}

		// Folded diagonal: p = m⊙r + β·p and γ = Σ m·r·r.
		minv := mk(7)
		for i := range minv.Data {
			minv.Data[i] = 0.5 + math.Abs(minv.Data[i])
		}
		pm, sm := mk(8), mk(9)
		pmRef, smRef := mk(8), mk(9)
		u := mk(10)
		for i := range u.Data {
			u.Data[i] = minv.Data[i] * r.Data[i]
		}
		Xpay3D(par.Serial, in, u, beta, pmRef)
		Xpay3D(par.Serial, in, w, beta, smRef)
		FusedCGDirections3D(pool, in, minv, r, w, beta, pm, sm)
		fields3Close13(t, name+" folded p", pm, pmRef)
		fields3Close13(t, name+" folded s", sm, smRef)

		xm, rm := mk(11), mk(12)
		xmRef, rmRef := mk(11), mk(12)
		Axpy3D(par.Serial, in, alpha, pm, xmRef)
		Axpy3D(par.Serial, in, -alpha, sm, rmRef)
		var gammaRef float64
		for k := 0; k < g3.NZ; k++ {
			for j := 0; j < g3.NY; j++ {
				for i := 0; i < g3.NX; i++ {
					v := rmRef.At(i, j, k)
					gammaRef += minv.At(i, j, k) * v * v
				}
			}
		}
		gammaM, _ := FusedCGUpdate3D(pool, in, alpha, pm, sm, xm, rm, minv)
		if !close13(gammaM, gammaRef) {
			t.Errorf("%s: folded γ = %v, want %v", name, gammaM, gammaRef)
		}
		fields3Close13(t, name+" folded x", xm, xmRef)
		fields3Close13(t, name+" folded r", rm, rmRef)
	}
}

func TestDot3DMatchesNaive(t *testing.T) {
	g3, err := grid.NewGrid3D(9, 6, 4, 2, 0, 1, 0, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, y := grid.NewField3D(g3), grid.NewField3D(g3)
	rng := newRng(7)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
		y.Data[i] = rng.Float64()
	}
	var want float64
	for k := 0; k < g3.NZ; k++ {
		for j := 0; j < g3.NY; j++ {
			for i := 0; i < g3.NX; i++ {
				want += x.At(i, j, k) * y.At(i, j, k)
			}
		}
	}
	for name, pool := range fusionPools() {
		if got := Dot3D(pool, g3.Interior(), x, y); !close13(got, want) {
			t.Errorf("%s: Dot3D = %v, want %v (halo leak?)", name, got, want)
		}
	}
}

// newRng mirrors testField's seeding for 3D fields.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// fields3Close13 asserts two 3D fields agree to 1e-13 everywhere.
func fields3Close13(t *testing.T, name string, got, want *grid.Field3D) {
	t.Helper()
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-13 {
			t.Fatalf("%s: differs at %d: %v vs %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestFusedPPCGInner3DMatchesComposed checks the fused 3D inner step
// against the composed sequence on extended bounds with a folded diagonal.
func TestFusedPPCGInner3DMatchesComposed(t *testing.T) {
	g3 := grid.UnitGrid3D(8, 7, 6, 2)
	in := g3.Interior()
	b := in.ExpandSides(1, 1, 0, 1, 1, 1, g3)
	mk := func(seed int64) *grid.Field3D {
		f := grid.NewField3D(g3)
		rng := newRng(seed)
		for i := range f.Data {
			f.Data[i] = rng.Float64()*2 - 1
		}
		return f
	}
	const alpha, beta = 0.42, 0.58
	for name, pool := range fusionPools() {
		w, minv := mk(20), mk(21)
		for i := range minv.Data {
			minv.Data[i] = 0.5 + math.Abs(minv.Data[i])
		}
		rtRef, sdRef, zRef := mk(22), mk(23), mk(24)
		rt, sd, z := mk(22), mk(23), mk(24)

		// Composed reference.
		Axpy3D(par.Serial, b, -1, w, rtRef)
		zscr := grid.NewField3D(g3)
		for k := b.Z0; k < b.Z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				for i := b.X0; i < b.X1; i++ {
					zscr.Set(i, j, k, minv.At(i, j, k)*rtRef.At(i, j, k))
					sdRef.Set(i, j, k, alpha*sdRef.At(i, j, k)+beta*zscr.At(i, j, k))
				}
			}
		}
		Axpy3D(par.Serial, in, 1, sdRef, zRef)

		FusedPPCGInner3D(pool, b, in, alpha, beta, w, rt, minv, sd, z)
		fields3Close13(t, name+" rtemp", rt, rtRef)
		fields3Close13(t, name+" sd", sd, sdRef)
		fields3Close13(t, name+" z", z, zRef)
	}
}

// TestAxpbyPre3DAndDot23D covers the remaining fused 3D BLAS1 kernels.
func TestAxpbyPre3DAndDot23D(t *testing.T) {
	g3 := grid.UnitGrid3D(9, 5, 4, 1)
	in := g3.Interior()
	mk := func(seed int64) *grid.Field3D {
		f := grid.NewField3D(g3)
		rng := newRng(seed)
		for i := range f.Data {
			f.Data[i] = rng.Float64()*2 - 1
		}
		return f
	}
	for name, pool := range fusionPools() {
		y, r, minv := mk(30), mk(31), mk(32)
		yRef := y.Clone()
		const a, be = 0.7, -0.3
		for k := 0; k < g3.NZ; k++ {
			for j := 0; j < g3.NY; j++ {
				for i := 0; i < g3.NX; i++ {
					yRef.Set(i, j, k, a*yRef.At(i, j, k)+be*(minv.At(i, j, k)*r.At(i, j, k)))
				}
			}
		}
		AxpbyPre3D(pool, in, a, y, be, minv, r)
		fields3Close13(t, name+" axpbypre", y, yRef)

		x, yy, zz := mk(33), mk(34), mk(35)
		var wantXY, wantYZ float64
		for k := 0; k < g3.NZ; k++ {
			for j := 0; j < g3.NY; j++ {
				for i := 0; i < g3.NX; i++ {
					wantXY += x.At(i, j, k) * yy.At(i, j, k)
					wantYZ += yy.At(i, j, k) * zz.At(i, j, k)
				}
			}
		}
		xy, yz := Dot23D(pool, in, x, yy, zz)
		if !close13(xy, wantXY) || !close13(yz, wantYZ) {
			t.Errorf("%s: Dot23D = (%v,%v), want (%v,%v)", name, xy, yz, wantXY, wantYZ)
		}
	}
}

package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

func randomDensity3D(g *grid.Grid3D, seed int64) *grid.Field3D {
	d := grid.NewField3D(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				d.Set(i, j, k, 0.1+rng.Float64()*5)
			}
		}
	}
	d.ReflectHalos(g.Halo)
	return d
}

func randomField3D(g *grid.Grid3D, seed int64) *grid.Field3D {
	f := grid.NewField3D(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				f.Set(i, j, k, rng.Float64()*2-1)
			}
		}
	}
	return f
}

// positiveField3D is positiveField on a 3D grid.
func positiveField3D(g *grid.Grid3D, seed int64) *grid.Field3D {
	f := randomField3D(g, seed)
	for i, v := range f.Data {
		f.Data[i] = 1 + v/2
	}
	return f
}

func dot3D(a, b *grid.Field3D) float64 {
	g := a.Grid
	var s float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				s += a.At(i, j, k) * b.At(i, j, k)
			}
		}
	}
	return s
}

func TestBuild3DValidation(t *testing.T) {
	g := grid.UnitGrid3D(4, 4, 4, 1)
	d := randomDensity3D(g, 1)
	if _, err := BuildOperator3D(par.Serial, d, -1, Conductivity, AllPhysical3D); err == nil {
		t.Error("negative dt must error")
	}
	if _, err := BuildOperator3D(par.Serial, d, 0.1, Coefficient(0), AllPhysical3D); err == nil {
		t.Error("bad coefficient must error")
	}
	bad := randomDensity3D(g, 2)
	bad.Set(0, 0, 0, 0)
	bad.ReflectHalos(1)
	if _, err := BuildOperator3D(par.Serial, bad, 0.1, Conductivity, AllPhysical3D); err == nil {
		t.Error("zero density must error")
	}
}

func TestOperator3DRowSumsOne(t *testing.T) {
	g := grid.UnitGrid3D(6, 5, 4, 1)
	op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 3), 0.05, RecipConductivity, AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	ones := grid.NewField3D(g)
	ones.Fill(1)
	w := grid.NewField3D(g)
	op.Apply(par.Serial, g.Interior(), ones, w)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				if math.Abs(w.At(i, j, k)-1) > 1e-13 {
					t.Fatalf("row sum at (%d,%d,%d) = %v", i, j, k, w.At(i, j, k))
				}
			}
		}
	}
}

func TestOperator3DSymmetricPositive(t *testing.T) {
	g := grid.UnitGrid3D(5, 5, 5, 1)
	op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 4), 0.03, Conductivity, AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	p := randomField3D(g, 5)
	q := randomField3D(g, 6)
	ap := grid.NewField3D(g)
	aq := grid.NewField3D(g)
	op.Apply(par.Serial, g.Interior(), p, ap)
	op.Apply(par.Serial, g.Interior(), q, aq)
	lhs, rhs := dot3D(ap, q), dot3D(p, aq)
	if math.Abs(lhs-rhs) > 1e-12*math.Max(1, math.Abs(lhs)) {
		t.Errorf("asymmetric: %v vs %v", lhs, rhs)
	}
	if pap := dot3D(p, ap); pap <= 0 {
		t.Errorf("<p,Ap> = %v, want > 0", pap)
	}
}

// TestApplyDot3DMatches holds ApplyDot's w to Apply's bit for bit and its
// p·w to a serial dot, on the interior of a ragged mesh (width 9) and
// its depth-1 extended box, on 1, 2, 4 and 7 workers.
func TestApplyDot3DMatches(t *testing.T) {
	g, err := grid.NewGrid3D(9, 7, 6, 2, 0, 1, 0, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 41), 0.05, Conductivity, AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	p := randomField3D(g, 42)
	p.ReflectHalos(2)
	for _, b := range []grid.Bounds3D{g.Interior(), g.Interior().Expand(1, g)} {
		w1 := grid.NewField3D(g)
		op.Apply(par.Serial, b, p, w1)
		var want float64
		for k := b.Z0; k < b.Z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				for i := b.X0; i < b.X1; i++ {
					want += p.At(i, j, k) * w1.At(i, j, k)
				}
			}
		}
		for _, workers := range []int{1, 2, 4, 7} {
			pool := par.NewPool(workers).WithGrain(1)
			w2 := grid.NewField3D(g)
			got := op.ApplyDot(pool, b, p, w2)
			if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Errorf("workers=%d %v: ApplyDot = %v, want %v", workers, b, got, want)
			}
			if i := sameBits(w2.Data, w1.Data); i >= 0 {
				t.Errorf("workers=%d %v: fused w differs at flat index %d", workers, b, i)
			}
			pool.Close()
		}
	}
}

func TestResidual3D(t *testing.T) {
	g := grid.UnitGrid3D(4, 4, 4, 1)
	op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 9), 0.04, Conductivity, AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	u := randomField3D(g, 10)
	rhs := randomField3D(g, 11)
	r := grid.NewField3D(g)
	op.Residual(par.Serial, g.Interior(), u, rhs, r)
	au := grid.NewField3D(g)
	op.Apply(par.Serial, g.Interior(), u, au)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				if math.Abs(r.At(i, j, k)+au.At(i, j, k)-rhs.At(i, j, k)) > 1e-13 {
					t.Fatal("3D residual identity broken")
				}
			}
		}
	}
}

func TestApplyPreDot3DMatchesComposed(t *testing.T) {
	g := grid.UnitGrid3D(7, 6, 5, 2)
	op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 50), 0.05, Conductivity, AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	in := g.Interior()
	// A synthetic diagonal scaling, valid over the padded region.
	minv := grid.NewField3D(g)
	rng := rand.New(rand.NewSource(51))
	for i := range minv.Data {
		minv.Data[i] = 0.5 + rng.Float64()
	}
	r := randomField3D(g, 52)
	r.ReflectHalos(1)
	// Reference: u = minv ⊙ r materialised, then w = A·u, δ = u·w.
	u := grid.NewField3D(g)
	for i := range u.Data {
		u.Data[i] = minv.Data[i] * r.Data[i]
	}
	wRef := grid.NewField3D(g)
	op.Apply(par.Serial, in, u, wRef)
	wantDelta := dot3D(u, wRef)

	for _, workers := range []int{1, 2, 4} {
		pool := par.NewPool(workers).WithGrain(1)
		w := grid.NewField3D(g)
		delta := op.ApplyPreDot(pool, in, minv, r, w)
		if math.Abs(delta-wantDelta) > 1e-12*math.Max(1, math.Abs(wantDelta)) {
			t.Errorf("workers=%d: ApplyPreDot δ = %v, want %v", workers, delta, wantDelta)
		}
		if wRef.MaxDiff(w) > 1e-13 {
			t.Errorf("workers=%d: fused w differs by %v", workers, wRef.MaxDiff(w))
		}
		ga, de, rr := op.ApplyPreDotInit(pool, in, minv, r, w)
		if math.Abs(ga-dot3D(r, u)) > 1e-12*math.Abs(dot3D(r, u)) ||
			math.Abs(de-wantDelta) > 1e-12*math.Max(1, math.Abs(wantDelta)) ||
			math.Abs(rr-dot3D(r, r)) > 1e-12*dot3D(r, r) {
			t.Errorf("workers=%d: ApplyPreDotInit = (%v,%v,%v)", workers, ga, de, rr)
		}
		pool.Close()
	}
}

func TestDiagonal3DRowSumIdentity(t *testing.T) {
	g := grid.UnitGrid3D(6, 6, 6, 1)
	op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 60), 0.04, Conductivity, AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	d := grid.NewField3D(g)
	op.Diagonal(par.Serial, g.Interior(), d)
	// diag = 1 + sum of off-diagonal couplings: applying A to the
	// indicator of one interior cell must give diag at that cell.
	e := grid.NewField3D(g)
	e.Set(3, 3, 3, 1)
	w := grid.NewField3D(g)
	op.Apply(par.Serial, g.Interior(), e, w)
	if math.Abs(w.At(3, 3, 3)-d.At(3, 3, 3)) > 1e-14 {
		t.Errorf("diag(3,3,3) = %v, Apply gives %v", d.At(3, 3, 3), w.At(3, 3, 3))
	}
}

// A 2×1×1 rank split with exchanged density must produce, on each half,
// exactly the coefficients the global operator holds there: rank faces
// keep neighbour coupling, physical faces are zeroed.
func TestBuildOperator3DRankFacesKeepCoupling(t *testing.T) {
	g := grid.UnitGrid3D(8, 4, 4, 2)
	den := randomDensity3D(g, 70)
	opG, err := BuildOperator3D(par.Serial, den, 0.05, Conductivity, AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	// Left half [0,4) with a live Right face.
	sub, err := g.Sub(0, 4, 0, 4, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	denL := grid.NewField3D(sub)
	for k := -2; k < 6; k++ {
		for j := -2; j < 6; j++ {
			for i := -2; i < 6; i++ {
				denL.Set(i, j, k, den.At(i, j, k)) // includes the neighbour's cells
			}
		}
	}
	opL, err := BuildOperator3D(par.Serial, denL, 0.05, Conductivity,
		PhysicalSides3D{Left: true, Down: true, Up: true, Back: true, Front: true})
	if err != nil {
		t.Fatal(err)
	}
	// The x-face at the rank boundary (i=4 globally, i=4 locally) must
	// carry the global coupling, not zero.
	if got, want := opL.Kx.At(4, 2, 2), opG.Kx.At(4, 2, 2); math.Abs(got-want) > 1e-14 {
		t.Errorf("rank-boundary Kx = %v, want %v", got, want)
	}
	if opL.Kx.At(0, 2, 2) != 0 {
		t.Error("physical Left face must be zeroed")
	}
}

// BenchmarkStencilSweeps times the stencil sweeps through both
// adapters, in ns per cell: Apply, ApplyDot and ApplyPreDot (identity and
// with a Jacobi-style folded diagonal) on the 2D 1024² mesh of the
// pipe2d rows and the 3D 128³ mesh of bm3d_cg_128_w2, on one and two
// workers. The folded 3D ApplyPreDot is the sweep bm3d_cg_128_w2 spends
// most of its time in.
func BenchmarkStencilSweeps(b *testing.B) {
	const n2, n3 = 1024, 128
	g2 := grid.UnitGrid2D(n2, n2, 2)
	op2, err := BuildOperator2D(par.Serial, uniformDensity(g2, 1.7), 0.04, Conductivity, AllPhysical)
	if err != nil {
		b.Fatal(err)
	}
	m2 := grid.NewField2D(g2)
	op2.InvDiagonal(par.Serial, g2.Interior().Expand(1, g2), m2)
	p2, w2 := randomField(g2, 1), grid.NewField2D(g2)
	g3 := grid.UnitGrid3D(n3, n3, n3, 2)
	op3, err := BuildOperator3D(par.Serial, randomDensity3D(g3, 1), 0.04, Conductivity, AllPhysical3D)
	if err != nil {
		b.Fatal(err)
	}
	m3 := grid.NewField3D(g3)
	op3.InvDiagonal(par.Serial, g3.Interior().Expand(1, g3), m3)
	p3, w3 := randomField3D(g3, 2), grid.NewField3D(g3)
	in2, in3 := g2.Interior(), g3.Interior()
	var sink float64
	for _, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		b.Cleanup(pool.Close)
		sweeps := []struct {
			name  string
			cells int
			run   func()
		}{
			{"2D/Apply", in2.Cells(), func() { op2.Apply(pool, in2, p2, w2) }},
			{"2D/ApplyDot", in2.Cells(), func() { sink += op2.ApplyDot(pool, in2, p2, w2) }},
			{"2D/ApplyPreDot", in2.Cells(), func() { sink += op2.ApplyPreDot(pool, in2, nil, p2, w2) }},
			{"2D/ApplyPreDot/diag", in2.Cells(), func() { sink += op2.ApplyPreDot(pool, in2, m2, p2, w2) }},
			{"3D/Apply", in3.Cells(), func() { op3.Apply(pool, in3, p3, w3) }},
			{"3D/ApplyDot", in3.Cells(), func() { sink += op3.ApplyDot(pool, in3, p3, w3) }},
			{"3D/ApplyPreDot", in3.Cells(), func() { sink += op3.ApplyPreDot(pool, in3, nil, p3, w3) }},
			{"3D/ApplyPreDot/diag", in3.Cells(), func() { sink += op3.ApplyPreDot(pool, in3, m3, p3, w3) }},
		}
		for _, sw := range sweeps {
			b.Run(fmt.Sprintf("%s/workers=%d", sw.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sw.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sw.cells), "ns/cell")
			})
		}
	}
	_ = sink
}

// oldApplyPreDot3D is the sweep the rolling-window ApplyPreDot replaced,
// kept as its oracle: u = minv ⊙ r evaluated at all seven stencil points
// of every cell, same association, the band's δ in one accumulator in
// cell order, run through the same scheduler so the fold is the sweep's.
func oldApplyPreDot3D(op *Operator3D, pool *par.Pool, b grid.Bounds3D, minv, r, w *grid.Field3D) float64 {
	g := op.Grid
	sy := g.NX + 2*g.Halo
	sz := sy * (g.NY + 2*g.Halo)
	kx, ky, kz := op.Kx.Data, op.Ky.Data, op.Kz.Data
	md, rd, wd := minv.Data, r.Data, w.Data
	return pool.ForReduceN(1, b.Z0, b.Z1, func(k0, k1 int, acc []float64) {
		var delta float64
		for k := k0; k < k1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				for c := g.Index(b.X0, j, k); c < g.Index(b.X1, j, k); c++ {
					uc := md[c] * rd[c]
					v := (1+(kx[c+1]+kx[c])+(ky[c+sy]+ky[c])+(kz[c+sz]+kz[c]))*uc -
						(kx[c+1]*(md[c+1]*rd[c+1]) + kx[c]*(md[c-1]*rd[c-1])) -
						(ky[c+sy]*(md[c+sy]*rd[c+sy]) + ky[c]*(md[c-sy]*rd[c-sy])) -
						(kz[c+sz]*(md[c+sz]*rd[c+sz]) + kz[c]*(md[c-sz]*rd[c-sz]))
					wd[c] = v
					delta += uc * v
				}
			}
		}
		acc[0] += delta
	})[0]
}

// TestApplyPreDot3DMatchesOldBodyBitwise pins the window sweep to the
// sweep it replaced, bit for bit on w and δ: over band shapes down to
// one row and one plane thick, over the interior
// and an extended deep-halo box, and with NaN
// poisoned into the four corner columns of the box's x/y surround —
// cells the window fills and the 7-point stencil never reads.
func TestApplyPreDot3DMatchesOldBodyBitwise(t *testing.T) {
	g := grid.UnitGrid3D(9, 7, 6, 3)
	op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 70), 0.05, Conductivity, PhysicalSides3D{Left: true, Down: true, Back: true})
	if err != nil {
		t.Fatal(err)
	}
	in := g.Interior()
	minv := positiveField3D(g, 71)
	pools := map[string]*par.Pool{"serial": par.Serial}
	for _, w := range []int{2, 3, 6} {
		p := par.NewPool(w).WithGrain(1)
		defer p.Close()
		pools[fmt.Sprintf("w%d", w)] = p
	}
	for _, b := range []grid.Bounds3D{in, in.ExpandSides(0, 2, 0, 2, 0, 2, g), {X0: 2, X1: 3, Y0: 1, Y1: 6, Z0: 4, Z1: 5}} {
		r := randomField3D(g, 72)
		for _, x := range []int{b.X0 - 1, b.X1} {
			for _, y := range []int{b.Y0 - 1, b.Y1} {
				for z := b.Z0 - 1; z <= b.Z1; z++ {
					r.Set(x, y, z, math.NaN())
				}
			}
		}
		for name, pool := range pools {
			wOld, w := grid.NewField3D(g), grid.NewField3D(g)
			want := oldApplyPreDot3D(op, pool, b, minv, r, wOld)
			got := op.ApplyPreDot(pool, b, minv, r, w)
			if math.IsNaN(want) || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s %v: δ = %v, old body %v", name, b, got, want)
			}
			for i := range w.Data {
				if math.Float64bits(w.Data[i]) != math.Float64bits(wOld.Data[i]) {
					t.Fatalf("%s %v: w differs at flat index %d: %v vs %v", name, b, i, w.Data[i], wOld.Data[i])
				}
			}
		}
	}
}

// dispatchAllocs is what one ForReduceN dispatch of a capturing k-wide
// body over the outer range [lo, hi) costs on pool (par's result slice,
// partial table, closure and join barrier, plus the body closure) — the
// floor a sweep's allocation count is pinned to; see the kernels
// package's twin.
func dispatchAllocs(pool *par.Pool, k, lo, hi int) float64 {
	x := 1.0
	return testing.AllocsPerRun(20, func() {
		x = pool.ForReduceN(k, lo, hi, func(k0, k1 int, acc []float64) { acc[0] += x })[0]
	})
}

// TestApplyPreDotAllocatesNothing: once every worker has run a band, the
// 2D and 3D window sweeps allocate exactly what the scheduler dispatch
// does on a 2-worker pool — the u window comes from the reusable scratch,
// not from a make per band per sweep (the 2D body's old behaviour: one
// garbage buffer per band per CG iteration).
func TestApplyPreDotAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	pool := par.NewPool(2).WithGrain(1)
	defer pool.Close()
	g2 := grid.UnitGrid2D(64, 48, 2)
	op2, err := BuildOperator2D(par.Serial, randomDensity(g2, 80), 0.04, Conductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	m2, r2, w2 := positiveField(g2, 81), randomField(g2, 82), grid.NewField2D(g2)
	g3 := grid.UnitGrid3D(24, 16, 12, 2)
	op3, err := BuildOperator3D(par.Serial, randomDensity3D(g3, 83), 0.04, Conductivity, AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	m3, r3, w3 := positiveField3D(g3, 84), randomField3D(g3, 85), grid.NewField3D(g3)
	in2, in3 := g2.Interior(), g3.Interior()
	got := testing.AllocsPerRun(20, func() { op2.ApplyPreDot(pool, in2, m2, r2, w2) })
	if want := dispatchAllocs(pool, 1, in2.Y0, in2.Y1); got != want {
		t.Errorf("2D ApplyPreDot allocates %v per sweep, the bare dispatch %v", got, want)
	}
	got = testing.AllocsPerRun(20, func() { op3.ApplyPreDot(pool, in3, m3, r3, w3) })
	if want := dispatchAllocs(pool, 1, in3.Z0, in3.Z1); got != want {
		t.Errorf("3D ApplyPreDot allocates %v per sweep, the bare dispatch %v", got, want)
	}
}

// TestApplyPreDot3DShapes is the 3D twin of TestApplyPreDotShapes, down
// to one-cell-thick slabs and a single cell.
func TestApplyPreDot3DShapes(t *testing.T) {
	shapes := []struct{ nx, ny, nz int }{
		{10, 8, 6}, {5, 5, 5}, {2, 6, 4}, {6, 2, 4}, {6, 4, 2}, {1, 3, 3}, {1, 1, 1},
	}
	w3 := par.NewPool(3).WithGrain(1)
	defer w3.Close()
	for _, sh := range shapes {
		g := grid.UnitGrid3D(sh.nx, sh.ny, sh.nz, 2)
		op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 4), 0.03, Conductivity, AllPhysical3D)
		if err != nil {
			t.Fatal(err)
		}
		r := randomField3D(g, 5)
		in := g.Interior()
		for _, minv := range []*grid.Field3D{nil, positiveField3D(g, 6)} {
			u := r.Clone()
			if minv != nil {
				for i := range u.Data {
					u.Data[i] = minv.Data[i] * r.Data[i]
				}
			}
			wRef := grid.NewField3D(g)
			op.Apply(par.Serial, in, u, wRef)
			want := dot3D(u, wRef)
			for name, pool := range map[string]*par.Pool{"serial": par.Serial, "w3": w3} {
				w := grid.NewField3D(g)
				got := op.ApplyPreDot(pool, in, minv, r, w)
				if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
					t.Errorf("%v minv=%v %s: ApplyPreDot = %g, want %g", sh, minv != nil, name, got, want)
				}
				if d := w.MaxDiff(wRef); d > 1e-13 {
					t.Errorf("%v minv=%v %s: w differs from A·u by %g", sh, minv != nil, name, d)
				}
			}
		}
	}
}

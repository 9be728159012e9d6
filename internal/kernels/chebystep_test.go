package kernels_test

import (
	"fmt"
	"math"
	"testing"

	"tealeaf/internal/grid"
	. "tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// The merged Chebyshev step lives in package stencil (it needs the face
// coefficients) but its contract is stated against this package's
// kernels, so the tests live here: one step of ChebySteps must reproduce
// Apply followed by FusedPPCGInner BIT FOR BIT on rtemp, the new
// direction and the accumulator, for every pool size, with and without
// a folded diagonal, on the interior and on matrix-powers
// bounds extended on any subset of sides. And it must read the old
// direction no further than one cell beyond those bounds and write the
// new one nowhere outside them: the cells it may not touch are NaN.
// (That a block of steps equals its steps one sweep each is
// stencil.TestChebyStepsMatchStepwiseBitwise.)

// extraSides are interior extensions {left, right, down, up, back, front}
// of up to three cells (the grids below have halo 4).
var extraSides = [][6]int{
	{0, 0, 0, 0, 0, 0},
	{3, 0, 0, 0, 0, 0},
	{0, 2, 1, 0, 0, 1},
	{1, 1, 1, 1, 1, 1},
	{0, 0, 0, 3, 2, 0},
	{2, 3, 1, 2, 3, 1},
}

// poisonOutside2D sets every cell of f outside b to NaN.
func poisonOutside2D(f *grid.Field2D, b grid.Bounds) {
	g := f.Grid
	for i := range f.Data {
		if j, k := g.Coords(i); !b.Contains(j, k) {
			f.Data[i] = math.NaN()
		}
	}
}

// sameOn2D reports the first cell of b at which got and want differ
// bitwise, and that every cell of got outside b still holds what
// outside expects there (bitwise: NaN payloads included).
func sameOn2D(t *testing.T, label, name string, b grid.Bounds, got, want, outside *grid.Field2D) {
	t.Helper()
	g := got.Grid
	for i := range got.Data {
		j, k := g.Coords(i)
		ref := outside
		if b.Contains(j, k) {
			ref = want
		}
		if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
			t.Errorf("%s: %s differs at (%d,%d) (inside b: %v): %v vs %v", label, name, j, k, b.Contains(j, k), got.Data[i], ref.Data[i])
			return
		}
	}
}

func chebyTestOp2D(g *grid.Grid2D) *stencil.Operator2D {
	den := testField(g, 71)
	for i, v := range den.Data {
		den.Data[i] = 1.5 + v // positive everywhere, halos included
	}
	// No physical sides: every face the extended bounds cross couples.
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.PhysicalSides{})
	if err != nil {
		panic(err)
	}
	return op
}

func TestChebyStepMatchesTwoSweepsBitwise(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 4)
	in := g.Interior()
	op := chebyTestOp2D(g)
	const alpha, beta = 0.83, 0.29
	for name, pool := range fusionPools() {
		for _, minv := range []*grid.Field2D{nil, testField(g, 72)} {
			for _, ex := range extraSides {
				b := in.ExpandSides(ex[0], ex[1], ex[2], ex[3], g)
				label := fmt.Sprintf("%s minv=%v b=%v", name, minv != nil, b)
				sdOld, rtemp, acc := testField(g, 73), testField(g, 74), testField(g, 75)
				poisonOutside2D(sdOld, b.Expand(1, g))
				sdNew := grid.NewField2D(g)
				poisonOutside2D(sdNew, grid.Bounds{})
				poison := sdNew.Clone()

				// The two-sweep oracle, direction updated in place.
				sdO, rO, accO, wO := sdOld.Clone(), rtemp.Clone(), acc.Clone(), grid.NewField2D(g)
				op.Apply(pool, b, sdO, wO)
				FusedPPCGInner(pool, b, in, alpha, beta, wO, rO, minv, sdO, accO)

				op.ChebySteps(pool, []grid.Bounds{b}, in, []float64{alpha}, []float64{beta}, sdOld, sdNew, rtemp, minv, acc)
				sameOn2D(t, label, "sdNew", b, sdNew, sdO, poison)
				sameOn2D(t, label, "rtemp", g.Interior().Expand(4, g), rtemp, rO, nil)
				sameOn2D(t, label, "acc", g.Interior().Expand(4, g), acc, accO, nil)
			}
		}
	}
}

func TestChebyStep3DMatchesTwoSweepsBitwise(t *testing.T) {
	g := grid.UnitGrid3D(11, 7, 5, 4)
	mk := func(seed int64) *grid.Field3D {
		f := grid.NewField3D(g)
		rng := newRng(seed)
		for i := range f.Data {
			f.Data[i] = rng.Float64()*2 - 1
		}
		return f
	}
	den := mk(81)
	for i, v := range den.Data {
		den.Data[i] = 1.5 + v
	}
	op, err := stencil.BuildOperator3D(par.Serial, den, 0.04, stencil.Conductivity, stencil.PhysicalSides3D{})
	if err != nil {
		t.Fatal(err)
	}
	in := g.Interior()
	contains := func(b grid.Bounds3D, i, j, k int) bool {
		return i >= b.X0 && i < b.X1 && j >= b.Y0 && j < b.Y1 && k >= b.Z0 && k < b.Z1
	}
	sx, sy := g.NX+2*g.Halo, g.NY+2*g.Halo
	coords := func(idx int) (i, j, k int) {
		return idx%sx - g.Halo, idx/sx%sy - g.Halo, idx/(sx*sy) - g.Halo
	}
	poisonOutside := func(f *grid.Field3D, b grid.Bounds3D) {
		for idx := range f.Data {
			if i, j, k := coords(idx); !contains(b, i, j, k) {
				f.Data[idx] = math.NaN()
			}
		}
	}
	same := func(label, name string, b grid.Bounds3D, got, want, outside *grid.Field3D) {
		t.Helper()
		for idx := range got.Data {
			i, j, k := coords(idx)
			ref := outside
			if contains(b, i, j, k) {
				ref = want
			}
			if math.Float64bits(got.Data[idx]) != math.Float64bits(ref.Data[idx]) {
				t.Errorf("%s: %s differs at (%d,%d,%d): %v vs %v", label, name, i, j, k, got.Data[idx], ref.Data[idx])
				return
			}
		}
	}
	whole := grid.Bounds3D{X0: -4, X1: g.NX + 4, Y0: -4, Y1: g.NY + 4, Z0: -4, Z1: g.NZ + 4}
	const alpha, beta = 0.83, 0.29
	for name, pool := range fusionPools() {
		for _, minv := range []*grid.Field3D{nil, mk(82)} {
			for _, ex := range extraSides {
				b := grid.Bounds3D{X0: in.X0 - ex[0], X1: in.X1 + ex[1], Y0: in.Y0 - ex[2], Y1: in.Y1 + ex[3], Z0: in.Z0 - ex[4], Z1: in.Z1 + ex[5]}
				label := fmt.Sprintf("%s minv=%v b=%+v", name, minv != nil, b)
				sdOld, rtemp, acc := mk(83), mk(84), mk(85)
				poisonOutside(sdOld, grid.Bounds3D{X0: b.X0 - 1, X1: b.X1 + 1, Y0: b.Y0 - 1, Y1: b.Y1 + 1, Z0: b.Z0 - 1, Z1: b.Z1 + 1})
				sdNew := grid.NewField3D(g)
				poisonOutside(sdNew, grid.Bounds3D{})
				poison := sdNew.Clone()

				sdO, rO, accO, wO := sdOld.Clone(), rtemp.Clone(), acc.Clone(), grid.NewField3D(g)
				op.Apply(pool, b, sdO, wO)
				FusedPPCGInner3D(pool, b, in, alpha, beta, wO, rO, minv, sdO, accO)

				op.ChebySteps(pool, []grid.Bounds3D{b}, in, []float64{alpha}, []float64{beta}, sdOld, sdNew, rtemp, minv, acc)
				same(label, "sdNew", b, sdNew, sdO, poison)
				same(label, "rtemp", whole, rtemp, rO, nil)
				same(label, "acc", whole, acc, accO, nil)
			}
		}
	}
}

// TestPPCGStepMatchesSweepsBitwise: the one-sweep step and set-up equals
// Xpay + Xpay + AxpyAxpy + copy + AxpbyPre(0, …) + Copy on every interior
// cell of p, s, u, r, w (rtemp), sd and z, with and without the step and
// the folded diagonal. w's and sd's halos are NaN before the call and
// must still be NaN after it (the depth-d exchange that follows rewrites
// the halo cells the inner solve reads).
func TestPPCGStepMatchesSweepsBitwise(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 3)
	in := g.Interior()
	g3 := grid.UnitGrid3D(9, 7, 5, 2)
	in3 := g3.Interior()
	mk3 := func(seed int64) *grid.Field3D {
		f := grid.NewField3D(g3)
		rng := newRng(seed)
		for i := range f.Data {
			f.Data[i] = rng.Float64()*2 - 1
		}
		return f
	}
	nan := math.NaN()
	const beta, alpha, thetaInv = 0.61, 0.37, 1 / 1.9
	for name, pool := range fusionPools() {
		for _, step := range []bool{false, true} {
			for _, folded := range []bool{false, true} {
				label := fmt.Sprintf("%s step=%v minv=%v", name, step, folded)

				p, sv, u, z := testField(g, 91), testField(g, 92), testField(g, 93), testField(g, 94)
				w, r, sd := testField(g, 95), testField(g, 96), testField(g, 97)
				var minv *grid.Field2D
				if folded {
					minv = testField(g, 98)
				}
				poisonOutside2D(w, in)
				poisonOutside2D(sd, in)
				pO, sO, uO, zO, wO, rO, sdO := p.Clone(), sv.Clone(), u.Clone(), z.Clone(), w.Clone(), r.Clone(), sd.Clone()
				if step {
					Xpay(pool, in, zO, beta, pO)
					Xpay(pool, in, wO, beta, sO)
					AxpyAxpy(pool, in, alpha, pO, uO, -alpha, sO, rO)
				} else {
					p, sv, u = nil, nil, nil
				}
				Copy(pool, in, wO, rO)
				AxpbyPre(pool, in, 0, sdO, thetaInv, minv, wO)
				Copy(pool, in, zO, sdO)
				PPCGStep(pool, in, beta, alpha, p, sv, u, z, w, r, thetaInv, minv, sd, nil)
				fields := []struct {
					name      string
					got, want *grid.Field2D
				}{{"z", z, zO}, {"r", r, rO}, {"w", w, wO}, {"sd", sd, sdO}}
				if step {
					fields = append(fields, []struct {
						name      string
						got, want *grid.Field2D
					}{{"p", p, pO}, {"s", sv, sO}, {"u", u, uO}}...)
				}
				for _, f := range fields {
					if i := firstDiff(f.got.Data, f.want.Data); i >= 0 {
						j, k := g.Coords(i)
						t.Errorf("%s: %s differs at (%d,%d): %v vs %v", label, f.name, j, k, f.got.Data[i], f.want.Data[i])
					}
				}

				p3, s3, u3, z3 := mk3(91), mk3(92), mk3(93), mk3(94)
				w3, r3, sd3 := mk3(95), mk3(96), mk3(97)
				var minv3 *grid.Field3D
				if folded {
					minv3 = mk3(98)
				}
				w3.Data[0], w3.Data[len(w3.Data)-1] = nan, nan // two halo corners
				pO3, sO3, uO3, zO3, wO3, rO3, sdO3 := p3.Clone(), s3.Clone(), u3.Clone(), z3.Clone(), w3.Clone(), r3.Clone(), sd3.Clone()
				if step {
					Xpay3D(pool, in3, zO3, beta, pO3)
					Xpay3D(pool, in3, wO3, beta, sO3)
					AxpyAxpy3D(pool, in3, alpha, pO3, uO3, -alpha, sO3, rO3)
				} else {
					p3, s3, u3 = nil, nil, nil
				}
				Copy3D(pool, in3, wO3, rO3)
				AxpbyPre3D(pool, in3, 0, sdO3, thetaInv, minv3, wO3)
				Copy3D(pool, in3, zO3, sdO3)
				PPCGStep3D(pool, in3, beta, alpha, p3, s3, u3, z3, w3, r3, thetaInv, minv3, sd3, nil)
				fields3 := []struct {
					name      string
					got, want *grid.Field3D
				}{{"z", z3, zO3}, {"r", r3, rO3}, {"w", w3, wO3}, {"sd", sd3, sdO3}}
				if step {
					fields3 = append(fields3, []struct {
						name      string
						got, want *grid.Field3D
					}{{"p", p3, pO3}, {"s", s3, sO3}, {"u", u3, uO3}}...)
				}
				for _, f := range fields3 {
					if i := firstDiff(f.got.Data, f.want.Data); i >= 0 {
						t.Errorf("%s: 3D %s differs at flat index %d: %v vs %v", label, f.name, i, f.got.Data[i], f.want.Data[i])
					}
				}
			}
		}
	}
}

// TestPPCGStepAllocatesNothing: the step and set-up sweep allocates
// exactly what a bare For dispatch of a capturing body does — nothing per
// row or per call of its own (see dispatchAllocs for why the floor is not
// zero). The Chebyshev steps' pin is in package solver, beside the inner
// solve that calls them.
func TestPPCGStepAllocatesNothing(t *testing.T) {
	pool := par.NewPool(2).WithGrain(1)
	defer pool.Close()
	g := grid.UnitGrid2D(64, 48, 2)
	g3 := grid.UnitGrid3D(24, 16, 12, 2)
	f := func() *grid.Field2D { return testField(g, 61) }
	f3 := func() *grid.Field3D { return grid.NewField3D(g3) }
	minv, p, sv, u, z, w, r, sd := f(), f(), f(), f(), f(), f(), f(), f()
	minv3, p3, sv3, u3, z3, w3, r3, sd3 := f3(), f3(), f3(), f3(), f3(), f3(), f3(), f3()
	in, in3 := g.Interior(), g3.Interior()
	// The bare dispatch is a For over the walker's outer range whose
	// body captures (and only reads) a variable, like the sweep's own.
	bare := func(w grid.Rows) float64 {
		x := []float64{1}
		return testing.AllocsPerRun(20, func() { pool.For(w.K0, w.K1, func(lo, hi int) { _ = x[0] }) })
	}
	got := testing.AllocsPerRun(20, func() {
		PPCGStep(pool, in, 0.5, 1e-3, p, sv, u, z, w, r, 0.5, minv, sd, nil)
	})
	if want := bare(g.Rows(in)); got != want {
		t.Errorf("PPCGStep allocates %v per call, a bare For %v", got, want)
	}
	got = testing.AllocsPerRun(20, func() {
		PPCGStep3D(pool, in3, 0.5, 1e-3, p3, sv3, u3, z3, w3, r3, 0.5, minv3, sd3, nil)
	})
	if want := bare(g3.Rows(in3)); got != want {
		t.Errorf("PPCGStep3D allocates %v per call, a bare For %v", got, want)
	}
}

// BenchmarkChebySteps is the fused PPCG inner solve between two
// exchanges: a block of 1, 2 or 4 Chebyshev steps in one wavefront pass,
// in ns per cell-step (one cell of one step's bounds). A step visits
// eight fields per cell (Kx, Ky, sd, minv, rtemp, z read; rtemp, sd′, z
// written — nine in 3D with Kz); a block of s steps streams each through
// memory once instead of s times, so the cache-missing shapes gain most.
// The ranks:
//   - 512x1024+ring: one of two ranks of the 1024² pipe at depth 4 (the
//     shape of bench/'s pipe2d_ppcg_1024_hub2 row), its bounds extended
//     3, 2, 1, 0 columns into the neighbour's halo on the rank face;
//   - 1024x1024 and 128x128x128: single ranks, every step on the
//     interior. Their 1-step cases are the one-sweep-per-step form, the
//     cases BenchmarkChebyStep measured before the wavefront.
func BenchmarkChebySteps(b *testing.B) {
	g := grid.UnitGrid2D(512, 1024, 4)
	den := grid.NewField2D(g)
	den.Fill(1.7)
	opRank, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity,
		stencil.PhysicalSides{Left: true, Down: true, Up: true})
	if err != nil {
		b.Fatal(err)
	}
	var ring []grid.Bounds
	for e := 3; e >= 0; e-- {
		ring = append(ring, g.Interior().ExpandSides(0, e, 0, 0, g))
	}
	g2 := benchGrid(1024)
	op2 := benchOp(g2)
	const n3 = 128
	g3 := grid.UnitGrid3D(n3, n3, n3, 2)
	mk3 := func(seed int64) *grid.Field3D {
		f := grid.NewField3D(g3)
		rng := newRng(seed)
		for i := range f.Data {
			f.Data[i] = rng.Float64()
		}
		return f
	}
	den3 := grid.NewField3D(g3)
	den3.Fill(1.7)
	op3, err := stencil.BuildOperator3D(par.Serial, den3, 0.04, stencil.Conductivity, stencil.AllPhysical3D)
	if err != nil {
		b.Fatal(err)
	}
	alphas, betas := []float64{0.9, 0.9, 0.9, 0.9}, []float64{0.1, 0.1, 0.1, 0.1}

	// run times one block per iteration; block(pool, s) runs s steps and
	// returns the cells they covered.
	run := func(b *testing.B, name string, block func(pool *par.Pool, steps int) int) {
		for _, workers := range []int{1, 2} {
			for _, steps := range []int{1, 2, 4} {
				b.Run(fmt.Sprintf("%s/workers=%d/steps=%d", name, workers, steps), func(b *testing.B) {
					pool := par.NewPool(workers)
					defer pool.Close()
					cells := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cells = block(pool, steps)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell-step")
				})
			}
		}
	}

	minv, rtemp, sd, alt, z := benchField(g, 1), benchField(g, 3), benchField(g, 4), benchField(g, 5), benchField(g, 6)
	run(b, "512x1024+ring", func(pool *par.Pool, steps int) int {
		opRank.ChebySteps(pool, ring[:steps], g.Interior(), alphas, betas, sd, alt, rtemp, minv, z)
		cells := 0
		for _, bb := range ring[:steps] {
			cells += bb.Cells()
		}
		return cells
	})

	in2 := g2.Interior()
	inner2 := []grid.Bounds{in2, in2, in2, in2}
	minv2, rtemp2, sd2, alt2, z2 := benchField(g2, 1), benchField(g2, 3), benchField(g2, 4), benchField(g2, 5), benchField(g2, 6)
	run(b, "1024x1024", func(pool *par.Pool, steps int) int {
		op2.ChebySteps(pool, inner2[:steps], in2, alphas, betas, sd2, alt2, rtemp2, minv2, z2)
		return steps * in2.Cells()
	})

	in3 := g3.Interior()
	inner3 := []grid.Bounds3D{in3, in3, in3, in3}
	minv3, rtemp3, sd3, alt3, z3 := mk3(1), mk3(3), mk3(4), mk3(5), mk3(6)
	run(b, fmt.Sprintf("%dx%dx%d", n3, n3, n3), func(pool *par.Pool, steps int) int {
		op3.ChebySteps(pool, inner3[:steps], in3, alphas, betas, sd3, alt3, rtemp3, minv3, z3)
		return steps * in3.Cells()
	})
}

// BenchmarkPPCGStep is PPCG's one step sweep: the CG engine's step with
// the inner solve's set-up riding it (once per outer iteration; it
// replaced six).
func BenchmarkPPCGStep(b *testing.B) {
	const n = 1024
	g := benchGrid(n)
	minv, p, sv, u := benchField(g, 1), benchField(g, 2), benchField(g, 3), benchField(g, 4)
	z, w, r, sd := benchField(g, 5), benchField(g, 6), benchField(g, 7), benchField(g, 8)
	b.SetBytes(int64(n*n) * 8 * 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PPCGStep(par.Serial, g.Interior(), 0.5, 1e-9, p, sv, u, z, w, r, 0.5, minv, sd, nil)
	}
	reportNsPerCell(b, n*n)
}

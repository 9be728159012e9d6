package kernels

import (
	"fmt"
	"math"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// The merged step's contract is stronger than the fusion contract of
// fused_test.go: FusedCGStep must reproduce FusedCGDirections followed
// by FusedCGUpdate — or, with x skipped on a ring, followed by the ring
// Axpy(−α) the deep-halo cycle used to run — BIT FOR BIT on p, s, x, r,
// γ and rr, for every pool size, tiled or not, with and without a folded
// diagonal. That is what lets the solver engines swap the two sweeps for
// one without moving a single golden.

// firstDiff returns the first index at which a and b differ bitwise, or
// -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// stepPools is the pool ladder {1,2,4,7} × untiled/tiled; tile edges
// that do not divide the test grids, and split X.
func stepPools(tx, ty, tz int) map[string]*par.Pool {
	pools := map[string]*par.Pool{}
	for name, p := range fusionPools() {
		pools[name] = p
		pools[name+"/tiled"] = p.WithTiles(tx, ty, tz)
	}
	return pools
}

func TestFusedCGStepMatchesTwoSweepsBitwise(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 2)
	in := g.Interior()
	out := in.Expand(2, g)
	rings := []grid.Bounds{
		{X0: out.X0, X1: out.X1, Y0: out.Y0, Y1: in.Y0},
		{X0: out.X0, X1: out.X1, Y0: in.Y1, Y1: out.Y1},
		{X0: out.X0, X1: in.X0, Y0: in.Y0, Y1: in.Y1},
		{X0: in.X1, X1: out.X1, Y0: in.Y0, Y1: in.Y1},
	}
	const alpha, beta = 0.31, 0.73
	for name, pool := range stepPools(5, 3, 0) {
		for _, minv := range []*grid.Field2D{nil, testField(g, 41)} {
			label := fmt.Sprintf("%s minv=%v", name, minv != nil)
			r, w := testField(g, 42), testField(g, 43)
			p, s, x := testField(g, 44), testField(g, 45), testField(g, 46)
			rO, pO, sO, xO := r.Clone(), p.Clone(), s.Clone(), x.Clone()

			// b == in: the interior step with x and both dots.
			FusedCGDirections(pool, in, minv, rO, w, beta, pO, sO)
			gammaO, rrO := FusedCGUpdate(pool, in, alpha, pO, sO, xO, rO, minv)
			gamma, rr := FusedCGStep(pool, in, minv, r, w, beta, alpha, p, s, x)
			if math.Float64bits(gamma) != math.Float64bits(gammaO) || math.Float64bits(rr) != math.Float64bits(rrO) {
				t.Errorf("%s: (γ,rr) = (%v,%v), two-sweep form (%v,%v)", label, gamma, rr, gammaO, rrO)
			}
			// The rings: x skipped, dots discarded.
			for _, rb := range rings {
				FusedCGDirections(pool, rb, minv, rO, w, beta, pO, sO)
				Axpy(pool, rb, -alpha, sO, rO)
				FusedCGStep(pool, rb, minv, r, w, beta, alpha, p, s, nil)
			}
			for _, f := range []struct {
				name      string
				got, want *grid.Field2D
			}{{"p", p, pO}, {"s", s, sO}, {"x", x, xO}, {"r", r, rO}} {
				if i := firstDiff(f.got.Data, f.want.Data); i >= 0 {
					j, k := g.Coords(i)
					t.Errorf("%s: %s differs at (%d,%d): %v vs %v", label, f.name, j, k, f.got.Data[i], f.want.Data[i])
				}
			}
		}
	}
}

func TestFusedCGStep3DMatchesTwoSweepsBitwise(t *testing.T) {
	g, err := grid.NewGrid3D(11, 7, 5, 2, 0, 1, 0, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) *grid.Field3D {
		f := grid.NewField3D(g)
		rng := newRng(seed)
		for i := range f.Data {
			f.Data[i] = rng.Float64()*2 - 1
		}
		return f
	}
	in := g.Interior()
	out := in.Expand(2, g)
	rings := []grid.Bounds3D{
		{X0: out.X0, X1: out.X1, Y0: out.Y0, Y1: out.Y1, Z0: out.Z0, Z1: in.Z0},
		{X0: out.X0, X1: out.X1, Y0: out.Y0, Y1: out.Y1, Z0: in.Z1, Z1: out.Z1},
		{X0: out.X0, X1: out.X1, Y0: out.Y0, Y1: in.Y0, Z0: in.Z0, Z1: in.Z1},
		{X0: out.X0, X1: out.X1, Y0: in.Y1, Y1: out.Y1, Z0: in.Z0, Z1: in.Z1},
		{X0: out.X0, X1: in.X0, Y0: in.Y0, Y1: in.Y1, Z0: in.Z0, Z1: in.Z1},
		{X0: in.X1, X1: out.X1, Y0: in.Y0, Y1: in.Y1, Z0: in.Z0, Z1: in.Z1},
	}
	const alpha, beta = 0.31, 0.73
	for name, pool := range stepPools(4, 3, 2) {
		for _, minv := range []*grid.Field3D{nil, mk(51)} {
			label := fmt.Sprintf("%s minv=%v", name, minv != nil)
			r, w := mk(52), mk(53)
			p, s, x := mk(54), mk(55), mk(56)
			rO, pO, sO, xO := r.Clone(), p.Clone(), s.Clone(), x.Clone()

			FusedCGDirections3D(pool, in, minv, rO, w, beta, pO, sO)
			gammaO, rrO := FusedCGUpdate3D(pool, in, alpha, pO, sO, xO, rO, minv)
			gamma, rr := FusedCGStep3D(pool, in, minv, r, w, beta, alpha, p, s, x)
			if math.Float64bits(gamma) != math.Float64bits(gammaO) || math.Float64bits(rr) != math.Float64bits(rrO) {
				t.Errorf("%s: (γ,rr) = (%v,%v), two-sweep form (%v,%v)", label, gamma, rr, gammaO, rrO)
			}
			for _, rb := range rings {
				FusedCGDirections3D(pool, rb, minv, rO, w, beta, pO, sO)
				Axpy3D(pool, rb, -alpha, sO, rO)
				FusedCGStep3D(pool, rb, minv, r, w, beta, alpha, p, s, nil)
			}
			for _, f := range []struct {
				name      string
				got, want *grid.Field3D
			}{{"p", p, pO}, {"s", s, sO}, {"x", x, xO}, {"r", r, rO}} {
				if i := firstDiff(f.got.Data, f.want.Data); i >= 0 {
					t.Errorf("%s: %s differs at flat index %d: %v vs %v", label, f.name, i, f.got.Data[i], f.want.Data[i])
				}
			}
		}
	}
}

// dispatchAllocs is what one ForTilesReduceN dispatch of a capturing
// k-wide body costs on pool: par's own result slice, partial table,
// closures and join barrier, plus the body closure. A sweep can be
// pinned to add nothing to it; it cannot be pinned to zero while the
// scheduler itself allocates per call.
func dispatchAllocs(pool *par.Pool, k int, b par.Box) float64 {
	x := 1.0
	return testing.AllocsPerRun(20, func() {
		x = pool.ForTilesReduceN(k, b, func(t par.Tile, acc []float64) { acc[0] += x })[0]
	})
}

// TestFusedCGStepAllocatesNothing: on a 2-worker pool, untiled and cut
// into many tiles, the merged step allocates exactly what the scheduler
// dispatch does — nothing per tile, per row or per call of its own.
func TestFusedCGStepAllocatesNothing(t *testing.T) {
	base := par.NewPool(2).WithGrain(1)
	defer base.Close()
	g := grid.UnitGrid2D(64, 48, 2)
	g3 := grid.UnitGrid3D(24, 16, 12, 2)
	f := func() *grid.Field2D { return testField(g, 61) }
	f3 := func() *grid.Field3D { return grid.NewField3D(g3) }
	minv, r, w, p, s, x := f(), f(), f(), f(), f(), f()
	minv3, r3, w3, p3, s3, x3 := f3(), f3(), f3(), f3(), f3(), f3()
	for name, pool := range map[string]*par.Pool{"untiled": base, "tiled": base.WithTiles(16, 4, 3)} {
		got := testing.AllocsPerRun(20, func() {
			FusedCGStep(pool, g.Interior(), minv, r, w, 0.5, 1e-3, p, s, x)
		})
		if want := dispatchAllocs(pool, 2, box(g.Interior())); got != want {
			t.Errorf("%s: FusedCGStep allocates %v per call, the bare dispatch %v", name, got, want)
		}
		got = testing.AllocsPerRun(20, func() {
			FusedCGStep3D(pool, g3.Interior(), minv3, r3, w3, 0.5, 1e-3, p3, s3, x3)
		})
		if want := dispatchAllocs(pool, 2, box3(g3.Interior())); got != want {
			t.Errorf("%s: FusedCGStep3D allocates %v per call, the bare dispatch %v", name, got, want)
		}
	}
}

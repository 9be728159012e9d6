package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
)

// CGIter's contract: one pass reproduces the sequence it replaced in the
// fused CG engine — kernels.FusedCGStep on the interior, the same step
// with x skipped on the extension rings, the communicator's reflection of
// r on physical sides, ApplyPreDot on the interior and on the matvec
// bounds' rings — BIT FOR BIT on r, s, w, x, γ, rr and δ, and on p over
// the interior (the pass no longer advances p on the rings, where nothing
// reads it, and must leave it alone there). The rows hook must see every
// interior row of w exactly once, already final. Pools {1, 2, 4, 7} at
// the default grain and at grain 1 (bands of one and two rows, every row
// an edge row); minv nil and not; the single-rank
// depth-1 pass (mirror) and depth-1..3 cycles extended toward 0–4
// neighbours.

// cgIterPools is the pool ladder the pass is held to.
func cgIterPools() map[string]*par.Pool {
	pools := map[string]*par.Pool{}
	for _, w := range []int{1, 2, 4, 7} {
		for _, grain := range []int{par.DefaultGrain, 1} {
			pools[fmt.Sprintf("w%d/grain%d", w, grain)] = par.NewPool(w).WithGrain(grain)
		}
	}
	return pools
}

// cgIterCase is one (step bounds, matvec bounds, mirror) shape: ext cells
// of step bounds on each side in {left, right, down, up, back, front}
// (the matvec bounds one fewer on each extended side).
type cgIterCase struct {
	name   string
	ext    [6]int
	mirror bool
}

func cgIterCases(dims int) []cgIterCase {
	cases := []cgIterCase{{name: "1 rank, depth 1", mirror: true}, {name: "1 rank, deep"}}
	sides := [][6]int{{0, 1, 0, 0, 0, 0}, {1, 0, 0, 1, 0, 1}, {1, 1, 1, 1, 1, 1}}
	for _, sd := range sides {
		for e := 1; e <= 3; e++ {
			var ext [6]int
			for a := 0; a < 2*dims; a++ {
				ext[a] = sd[a] * e
			}
			cases = append(cases, cgIterCase{name: fmt.Sprintf("ext %v", ext), ext: ext})
		}
	}
	return cases
}

// shrink is the matvec bounds of a case: one cell less on each extended
// side.
func shrink(ext [6]int) [6]int {
	for a, e := range ext {
		ext[a] = max(e-1, 0)
	}
	return ext
}

func rings2D(outer, in grid.Bounds) []grid.Bounds {
	var rs []grid.Bounds
	for _, b := range []grid.Bounds{
		{X0: outer.X0, X1: outer.X1, Y0: outer.Y0, Y1: in.Y0},
		{X0: outer.X0, X1: outer.X1, Y0: in.Y1, Y1: outer.Y1},
		{X0: outer.X0, X1: in.X0, Y0: in.Y0, Y1: in.Y1},
		{X0: in.X1, X1: outer.X1, Y0: in.Y0, Y1: in.Y1},
	} {
		if !b.Empty() {
			rs = append(rs, b)
		}
	}
	return rs
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestCGIterMatchesTwoSweepsBitwise(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 4)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 90), 0.04, Conductivity, PhysicalSides{})
	if err != nil {
		t.Fatal(err)
	}
	in := g.Interior()
	const beta, alpha = 0.73, 0.31
	pools := cgIterPools()
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for name, pool := range pools {
		for _, minv := range []*grid.Field2D{nil, positiveField(g, 91)} {
			for _, tc := range cgIterCases(2) {
				label := fmt.Sprintf("%s minv=%v %s", name, minv != nil, tc.name)
				e, m := tc.ext, shrink(tc.ext)
				sb := in.ExpandSides(e[0], e[1], e[2], e[3], g)
				mb := in.ExpandSides(m[0], m[1], m[2], m[3], g)
				var mirror PhysicalSides
				if tc.mirror {
					mirror = AllPhysical
				}
				r, w := randomField(g, 92), randomField(g, 93)
				p, s, x := randomField(g, 94), randomField(g, 95), randomField(g, 96)
				rO, wO, pO, sO, xO, p0 := r.Clone(), w.Clone(), p.Clone(), s.Clone(), x.Clone(), p.Clone()

				gO, rrO := kernels.FusedCGStep(pool, in, minv, rO, wO, beta, alpha, pO, sO, xO)
				for _, rb := range rings2D(sb, in) {
					kernels.FusedCGStep(pool, rb, minv, rO, wO, beta, alpha, pO, sO, nil)
				}
				if tc.mirror {
					rO.ReflectHalos(1)
				}
				dO := op.ApplyPreDot(pool, in, minv, rO, wO)
				for _, rb := range rings2D(mb, in) {
					op.ApplyPreDot(pool, rb, minv, rO, wO)
				}

				calls := make([]int, in.Y1-in.Y0)
				snap := make([][]float64, in.Y1-in.Y0)
				hook := func(k int) {
					calls[k-in.Y0]++
					snap[k-in.Y0] = append([]float64(nil), w.Row(k, in.X0, in.X1)...)
				}
				gam, rr, del := op.CGIter(pool, sb, mb, in, mirror, minv, r, w, beta, alpha, p, s, x, hook)
				if !sameFloat(gam, gO) || !sameFloat(rr, rrO) || !sameFloat(del, dO) {
					t.Errorf("%s: (γ,rr,δ) = (%v,%v,%v), two sweeps (%v,%v,%v)", label, gam, rr, del, gO, rrO, dO)
				}
				for _, f := range []struct {
					name      string
					got, want *grid.Field2D
				}{{"r", r, rO}, {"s", s, sO}, {"w", w, wO}, {"x", x, xO}} {
					if i := sameBits(f.got.Data, f.want.Data); i >= 0 {
						j, k := g.Coords(i)
						t.Errorf("%s: %s differs at (%d,%d): %v vs %v", label, f.name, j, k, f.got.Data[i], f.want.Data[i])
					}
				}
				for i := range p.Data {
					want := p0.Data[i]
					if j, k := g.Coords(i); in.Contains(j, k) {
						want = pO.Data[i]
					}
					if !sameFloat(p.Data[i], want) {
						j, k := g.Coords(i)
						t.Errorf("%s: p differs at (%d,%d): %v vs %v", label, j, k, p.Data[i], want)
						break
					}
				}
				for k := in.Y0; k < in.Y1; k++ {
					if calls[k-in.Y0] != 1 {
						t.Errorf("%s: rows(%d) called %d times", label, k, calls[k-in.Y0])
					} else if i := sameBits(snap[k-in.Y0], w.Row(k, in.X0, in.X1)); i >= 0 {
						t.Errorf("%s: rows(%d) saw w(%d) = %v before it was final (%v)", label, k, in.X0+i, snap[k-in.Y0][i], w.At(in.X0+i, k))
					}
				}
			}
		}
	}
}

// fullField3D fills every cell of a 3D field, halos included.
func fullField3D(g *grid.Grid3D, seed int64, positive bool) *grid.Field3D {
	f := grid.NewField3D(g)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.Float64()*2 - 1
		if positive {
			f.Data[i] = 1 + f.Data[i]/2
		}
	}
	return f
}

func rings3D(outer, in grid.Bounds3D) []grid.Bounds3D {
	var rs []grid.Bounds3D
	o := outer
	add := func(b grid.Bounds3D) {
		if !b.Empty() {
			rs = append(rs, b)
		}
	}
	add(grid.Bounds3D{X0: o.X0, X1: o.X1, Y0: o.Y0, Y1: o.Y1, Z0: o.Z0, Z1: in.Z0})
	add(grid.Bounds3D{X0: o.X0, X1: o.X1, Y0: o.Y0, Y1: o.Y1, Z0: in.Z1, Z1: o.Z1})
	add(grid.Bounds3D{X0: o.X0, X1: o.X1, Y0: o.Y0, Y1: in.Y0, Z0: in.Z0, Z1: in.Z1})
	add(grid.Bounds3D{X0: o.X0, X1: o.X1, Y0: in.Y1, Y1: o.Y1, Z0: in.Z0, Z1: in.Z1})
	add(grid.Bounds3D{X0: o.X0, X1: in.X0, Y0: in.Y0, Y1: in.Y1, Z0: in.Z0, Z1: in.Z1})
	add(grid.Bounds3D{X0: in.X1, X1: o.X1, Y0: in.Y0, Y1: in.Y1, Z0: in.Z0, Z1: in.Z1})
	return rs
}

func expand3D(in grid.Bounds3D, e [6]int) grid.Bounds3D {
	return grid.Bounds3D{X0: in.X0 - e[0], X1: in.X1 + e[1], Y0: in.Y0 - e[2], Y1: in.Y1 + e[3], Z0: in.Z0 - e[4], Z1: in.Z1 + e[5]}
}

func TestCGIter3DMatchesTwoSweepsBitwise(t *testing.T) {
	g := grid.UnitGrid3D(11, 7, 13, 4)
	op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 100), 0.04, Conductivity, PhysicalSides3D{})
	if err != nil {
		t.Fatal(err)
	}
	in := g.Interior()
	const beta, alpha = 0.73, 0.31
	pools := cgIterPools()
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for name, pool := range pools {
		for _, minv := range []*grid.Field3D{nil, fullField3D(g, 101, true)} {
			for _, tc := range cgIterCases(3) {
				label := fmt.Sprintf("%s minv=%v %s", name, minv != nil, tc.name)
				sb, mb := expand3D(in, tc.ext), expand3D(in, shrink(tc.ext))
				var mirror PhysicalSides3D
				if tc.mirror {
					mirror = AllPhysical3D
				}
				r, w := fullField3D(g, 102, false), fullField3D(g, 103, false)
				p, s, x := fullField3D(g, 104, false), fullField3D(g, 105, false), fullField3D(g, 106, false)
				rO, wO, pO, sO, xO, p0 := r.Clone(), w.Clone(), p.Clone(), s.Clone(), x.Clone(), p.Clone()

				gO, rrO := kernels.FusedCGStep3D(pool, in, minv, rO, wO, beta, alpha, pO, sO, xO)
				for _, rb := range rings3D(sb, in) {
					kernels.FusedCGStep3D(pool, rb, minv, rO, wO, beta, alpha, pO, sO, nil)
				}
				if tc.mirror {
					rO.ReflectHalos(1)
				}
				dO := op.ApplyPreDot(pool, in, minv, rO, wO)
				for _, rb := range rings3D(mb, in) {
					op.ApplyPreDot(pool, rb, minv, rO, wO)
				}

				calls := make([]int, in.Cells())
				snap := make([][]float64, len(calls))
				slot := func(j, k int) int { return (k-in.Z0)*(in.Y1-in.Y0) + j - in.Y0 }
				hook := func(j, k int) {
					calls[slot(j, k)]++
					snap[slot(j, k)] = append([]float64(nil), w.Row(j, k, in.X0, in.X1)...)
				}
				gam, rr, del := op.CGIter(pool, sb, mb, in, mirror, minv, r, w, beta, alpha, p, s, x, hook)
				if !sameFloat(gam, gO) || !sameFloat(rr, rrO) || !sameFloat(del, dO) {
					t.Errorf("%s: (γ,rr,δ) = (%v,%v,%v), two sweeps (%v,%v,%v)", label, gam, rr, del, gO, rrO, dO)
				}
				for _, f := range []struct {
					name      string
					got, want *grid.Field3D
				}{{"r", r, rO}, {"s", s, sO}, {"w", w, wO}, {"x", x, xO}} {
					if i := sameBits(f.got.Data, f.want.Data); i >= 0 {
						t.Errorf("%s: %s differs at flat index %d: %v vs %v", label, f.name, i, f.got.Data[i], f.want.Data[i])
					}
				}
				pIn := pO.Clone()
				copy(pIn.Data, p0.Data)
				for k := in.Z0; k < in.Z1; k++ {
					for j := in.Y0; j < in.Y1; j++ {
						copy(pIn.Row(j, k, in.X0, in.X1), pO.Row(j, k, in.X0, in.X1))
					}
				}
				if i := sameBits(p.Data, pIn.Data); i >= 0 {
					t.Errorf("%s: p differs at flat index %d: %v vs %v", label, i, p.Data[i], pIn.Data[i])
				}
				for k := in.Z0; k < in.Z1; k++ {
					for j := in.Y0; j < in.Y1; j++ {
						if n := calls[slot(j, k)]; n != 1 {
							t.Errorf("%s: rows(%d,%d) called %d times", label, j, k, n)
						} else if i := sameBits(snap[slot(j, k)], w.Row(j, k, in.X0, in.X1)); i >= 0 {
							t.Errorf("%s: rows(%d,%d) saw w before it was final", label, j, k)
						}
					}
				}
			}
		}
	}
}

// bareSweep is a band sweep that does nothing: its state on the heap and
// its two bodies bound to it, as CGIter's are.
type bareSweep struct{ x float64 }

func (b *bareSweep) edge(int) {
	if b.x < 0 {
		panic("unreachable")
	}
}

func (b *bareSweep) band(_, _ int, acc []float64) { acc[0] += b.x }

// bandsAllocs is what one ForBandsReduceN dispatch of a bareSweep costs on
// pool — CGIter's floor, as dispatchAllocs is a sweep's.
func bandsAllocs(pool *par.Pool, lo, hi int) float64 {
	return testing.AllocsPerRun(20, func() {
		b := &bareSweep{x: 1}
		pool.ForBandsReduceN(3, lo, hi, b.edge, b.band)
	})
}

// TestCGIterAllocatesNothing: on a 2-worker pool the one-pass iteration
// allocates exactly what its scheduler dispatch does — its u windows come
// from the reusable window pool (a 3D window made per call is three
// 130×130 planes per band per iteration of garbage), and no row, band or
// edge allocates.
func TestCGIterAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	pool := par.NewPool(2).WithGrain(1)
	defer pool.Close()
	g2 := grid.UnitGrid2D(64, 48, 2)
	op2, err := BuildOperator2D(par.Serial, randomDensity(g2, 110), 0.04, Conductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	f2 := func(seed int64) *grid.Field2D { return randomField(g2, seed) }
	m2, r2, w2, p2, s2, x2 := positiveField(g2, 111), f2(112), f2(113), f2(114), f2(115), f2(116)
	g3 := grid.UnitGrid3D(24, 16, 12, 2)
	op3, err := BuildOperator3D(par.Serial, randomDensity3D(g3, 117), 0.04, Conductivity, AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	f3 := func(seed int64) *grid.Field3D { return fullField3D(g3, seed, false) }
	m3, r3, w3, p3, s3, x3 := fullField3D(g3, 118, true), f3(119), f3(120), f3(121), f3(122), f3(123)
	in2, in3 := g2.Interior(), g3.Interior()
	const beta, alpha = 0.5, 1e-3
	for _, pre := range []bool{false, true} {
		mm2, mm3 := m2, m3
		if !pre {
			mm2, mm3 = nil, nil
		}
		got := testing.AllocsPerRun(20, func() {
			op2.CGIter(pool, in2, in2, in2, AllPhysical, mm2, r2, w2, beta, alpha, p2, s2, x2, nil)
		})
		if want := bandsAllocs(pool, in2.Y0, in2.Y1); got != want {
			t.Errorf("minv=%v: 2D CGIter allocates %v per call, the bare dispatch %v", pre, got, want)
		}
		got = testing.AllocsPerRun(20, func() {
			op3.CGIter(pool, in3, in3, in3, AllPhysical3D, mm3, r3, w3, beta, alpha, p3, s3, x3, nil)
		})
		if want := bandsAllocs(pool, in3.Z0, in3.Z1); got != want {
			t.Errorf("minv=%v: 3D CGIter allocates %v per call, the bare dispatch %v", pre, got, want)
		}
	}
}

// BenchmarkCGIter is the fused CG engine's iteration body, in ns per
// cell: "one-pass" is CGIter, "two-sweeps" the sequence it replaced
// (kernels.FusedCGStep, the single-rank reflection of r, ApplyPreDot), at
// the shapes of the bench harness's pipe2d_cg_1024 rows (2D 1024²,
// identity M) and bm3d_cg_128_w2 row (3D 128³, jac_diag), on one and two
// workers. r, w, s and x stream through memory once per iteration instead
// of twice (and minv too, in 3D).
func BenchmarkCGIter(b *testing.B) {
	const n2, n3 = 1024, 128
	g2 := grid.UnitGrid2D(n2, n2, 2)
	op2, err := BuildOperator2D(par.Serial, uniformDensity(g2, 1.7), 0.04, Conductivity, AllPhysical)
	if err != nil {
		b.Fatal(err)
	}
	f2 := func(seed int64) *grid.Field2D { return randomField(g2, seed) }
	r2, w2, p2, s2, x2 := f2(1), f2(2), f2(3), f2(4), f2(5)
	g3 := grid.UnitGrid3D(n3, n3, n3, 2)
	den3 := grid.NewField3D(g3)
	den3.Fill(1.7)
	op3, err := BuildOperator3D(par.Serial, den3, 0.04, Conductivity, AllPhysical3D)
	if err != nil {
		b.Fatal(err)
	}
	f3 := func(seed int64) *grid.Field3D { return fullField3D(g3, seed, false) }
	m3, r3, w3, p3, s3, x3 := fullField3D(g3, 6, true), f3(7), f3(8), f3(9), f3(10), f3(11)
	in2, in3 := g2.Interior(), g3.Interior()
	const beta, alpha = 0.5, 1e-9
	perCell := func(b *testing.B, cells int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
	}
	for _, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		b.Cleanup(pool.Close)
		b.Run(fmt.Sprintf("%dx%d/workers=%d/one-pass", n2, n2, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op2.CGIter(pool, in2, in2, in2, AllPhysical, nil, r2, w2, beta, alpha, p2, s2, x2, nil)
			}
			perCell(b, in2.Cells())
		})
		b.Run(fmt.Sprintf("%dx%d/workers=%d/two-sweeps", n2, n2, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.FusedCGStep(pool, in2, nil, r2, w2, beta, alpha, p2, s2, x2)
				r2.ReflectHalos(1)
				op2.ApplyPreDot(pool, in2, nil, r2, w2)
			}
			perCell(b, in2.Cells())
		})
		b.Run(fmt.Sprintf("%dx%dx%d/workers=%d/one-pass", n3, n3, n3, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op3.CGIter(pool, in3, in3, in3, AllPhysical3D, m3, r3, w3, beta, alpha, p3, s3, x3, nil)
			}
			perCell(b, in3.Cells())
		})
		b.Run(fmt.Sprintf("%dx%dx%d/workers=%d/two-sweeps", n3, n3, n3, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.FusedCGStep3D(pool, in3, m3, r3, w3, beta, alpha, p3, s3, x3)
				r3.ReflectHalos(1)
				op3.ApplyPreDot(pool, in3, m3, r3, w3)
			}
			perCell(b, in3.Cells())
		})
	}
}

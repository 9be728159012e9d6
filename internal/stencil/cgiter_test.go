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
// fused CG engine — kernels.FusedCGStep on the interior, the
// communicator's single-rank reflection of r, ApplyPreDot on the
// interior — BIT FOR BIT on r, s, w, x, p, γ, rr and δ. The rows hook
// must see every interior row of w exactly once, already final. Pools
// {1, 2, 4, 7} at the default grain and at grain 1 (bands of one and two
// rows, every row an edge row); minv nil and not.

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

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// lamRow is a λ row for the cells [x0, x1) of row (j, k): a value of
// each cell's own coordinates, whatever box the row is cut from.
func lamRow(x0, x1, j, k int) []float64 {
	ls := make([]float64, x1-x0)
	for i := range ls {
		ls[i] = 0.01*float64(x0+i) - 0.003*float64(j) + 0.007*float64(k)
	}
	return ls
}

// halve halves every value of a row in place.
func halve(row []float64) {
	for i := range row {
		row[i] *= 0.5
	}
}

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
			label := fmt.Sprintf("%s minv=%v", name, minv != nil)
			r, w := randomField(g, 92), randomField(g, 93)
			p, s, x := randomField(g, 94), randomField(g, 95), randomField(g, 96)
			rO, wO, pO, sO, xO := r.Clone(), w.Clone(), p.Clone(), s.Clone(), x.Clone()

			// pre halves w on its row and returns a λ row; the oracle
			// halves the whole interior first and hands the step sweep
			// the same λ, so agreement shows each row halved once,
			// before the step read it, and λ taken off w cell for cell.
			for k := in.Y0; k < in.Y1; k++ {
				halve(wO.Row(k, in.X0, in.X1))
			}
			preCalls := make([]int, in.Y1-in.Y0)
			pre := func(k int) []float64 {
				preCalls[k-in.Y0]++
				halve(w.Row(k, in.X0, in.X1))
				return lamRow(in.X0, in.X1, 0, k)
			}
			gO, rrO := kernels.FusedCGStepRows(pool, in, minv, rO, wO, beta, alpha, pO, sO, xO,
				func(k int) []float64 { return lamRow(in.X0, in.X1, 0, k) })
			rO.ReflectHalos(1)
			dO := op.ApplyPreDot(pool, in, minv, rO, wO)

			calls := make([]int, in.Y1-in.Y0)
			snap := make([][]float64, in.Y1-in.Y0)
			hook := func(k int) {
				calls[k-in.Y0]++
				snap[k-in.Y0] = append([]float64(nil), w.Row(k, in.X0, in.X1)...)
			}
			gam, rr, del := op.CGIter(pool, minv, r, w, beta, alpha, p, s, x, pre, hook)
			if !sameFloat(gam, gO) || !sameFloat(rr, rrO) || !sameFloat(del, dO) {
				t.Errorf("%s: (γ,rr,δ) = (%v,%v,%v), two sweeps (%v,%v,%v)", label, gam, rr, del, gO, rrO, dO)
			}
			for k, n := range preCalls {
				if n != 1 {
					t.Errorf("%s: pre(%d) called %d times", label, in.Y0+k, n)
				}
			}
			for _, f := range []struct {
				name      string
				got, want *grid.Field2D
			}{{"r", r, rO}, {"s", s, sO}, {"w", w, wO}, {"x", x, xO}, {"p", p, pO}} {
				if i := sameBits(f.got.Data, f.want.Data); i >= 0 {
					j, k := g.Coords(i)
					t.Errorf("%s: %s differs at (%d,%d): %v vs %v", label, f.name, j, k, f.got.Data[i], f.want.Data[i])
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
			label := fmt.Sprintf("%s minv=%v", name, minv != nil)
			r, w := fullField3D(g, 102, false), fullField3D(g, 103, false)
			p, s, x := fullField3D(g, 104, false), fullField3D(g, 105, false), fullField3D(g, 106, false)
			rO, wO, pO, sO, xO := r.Clone(), w.Clone(), p.Clone(), s.Clone(), x.Clone()

			// pre halves w on its row and returns a λ row, as in the
			// 2D test.
			ny := in.Y1 - in.Y0
			for k := in.Z0; k < in.Z1; k++ {
				for j := in.Y0; j < in.Y1; j++ {
					halve(wO.Row(j, k, in.X0, in.X1))
				}
			}
			preCalls := make([]int, ny*(in.Z1-in.Z0))
			pre := func(j, k int) []float64 {
				preCalls[(k-in.Z0)*ny+j-in.Y0]++
				halve(w.Row(j, k, in.X0, in.X1))
				return lamRow(in.X0, in.X1, j, k)
			}
			gO, rrO := kernels.FusedCGStepRows3D(pool, in, minv, rO, wO, beta, alpha, pO, sO, xO,
				func(j, k int) []float64 { return lamRow(in.X0, in.X1, j, k) })
			rO.ReflectHalos(1)
			dO := op.ApplyPreDot(pool, in, minv, rO, wO)

			calls := make([]int, in.Cells())
			snap := make([][]float64, len(calls))
			slot := func(j, k int) int { return (k-in.Z0)*(in.Y1-in.Y0) + j - in.Y0 }
			hook := func(j, k int) {
				calls[slot(j, k)]++
				snap[slot(j, k)] = append([]float64(nil), w.Row(j, k, in.X0, in.X1)...)
			}
			gam, rr, del := op.CGIter(pool, minv, r, w, beta, alpha, p, s, x, pre, hook)
			if !sameFloat(gam, gO) || !sameFloat(rr, rrO) || !sameFloat(del, dO) {
				t.Errorf("%s: (γ,rr,δ) = (%v,%v,%v), two sweeps (%v,%v,%v)", label, gam, rr, del, gO, rrO, dO)
			}
			for i, n := range preCalls {
				if n != 1 {
					t.Errorf("%s: pre(%d,%d) called %d times", label, in.Y0+i%ny, in.Z0+i/ny, n)
				}
			}
			for _, f := range []struct {
				name      string
				got, want *grid.Field3D
			}{{"r", r, rO}, {"s", s, sO}, {"w", w, wO}, {"x", x, xO}, {"p", p, pO}} {
				if i := sameBits(f.got.Data, f.want.Data); i >= 0 {
					t.Errorf("%s: %s differs at flat index %d: %v vs %v", label, f.name, i, f.got.Data[i], f.want.Data[i])
				}
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
			op2.CGIter(pool, mm2, r2, w2, beta, alpha, p2, s2, x2, nil, nil)
		})
		if want := bandsAllocs(pool, in2.Y0, in2.Y1); got != want {
			t.Errorf("minv=%v: 2D CGIter allocates %v per call, the bare dispatch %v", pre, got, want)
		}
		got = testing.AllocsPerRun(20, func() {
			op3.CGIter(pool, mm3, r3, w3, beta, alpha, p3, s3, x3, nil, nil)
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
				op2.CGIter(pool, nil, r2, w2, beta, alpha, p2, s2, x2, nil, nil)
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
				op3.CGIter(pool, m3, r3, w3, beta, alpha, p3, s3, x3, nil, nil)
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

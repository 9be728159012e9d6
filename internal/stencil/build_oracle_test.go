package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

// The operator builders before they worked on row slices: a padded
// temporary field of the per-cell coefficient w, then the face
// coefficients from it through At/Set. They are the oracle the row-run
// builders must match bit for bit.

func oracleBuildOperator2D(pool *par.Pool, density *grid.Field2D, dt float64, coef Coefficient, phys PhysicalSides) (*Operator2D, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("stencil: dt = %v must be positive and finite", dt)
	}
	if coef != Conductivity && coef != RecipConductivity {
		return nil, fmt.Errorf("stencil: unknown coefficient mode %d", int(coef))
	}
	g := density.Grid
	op := &Operator2D{
		Grid: g,
		Kx:   grid.NewField2D(g),
		Ky:   grid.NewField2D(g),
		Rx:   dt / (g.DX * g.DX),
		Ry:   dt / (g.DY * g.DY),
	}
	w := grid.NewField2D(g)
	h := g.Halo
	pool.For(-h, g.NY+h, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := -h; j < g.NX+h; j++ {
				rho := density.At(j, k)
				if rho <= 0 || math.IsNaN(rho) {
					w.Set(j, k, math.NaN())
					continue
				}
				if coef == RecipConductivity {
					w.Set(j, k, 1/rho)
				} else {
					w.Set(j, k, rho)
				}
			}
		}
	})
	for _, v := range w.Data {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("stencil: non-positive or NaN density encountered")
		}
	}
	pool.For(-h+1, g.NY+h, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := -h + 1; j < g.NX+h; j++ {
				wl, wc := w.At(j-1, k), w.At(j, k)
				op.Kx.Set(j, k, op.Rx*(wl+wc)/(2*wl*wc))
				wd := w.At(j, k-1)
				op.Ky.Set(j, k, op.Ry*(wd+wc)/(2*wd*wc))
			}
		}
	})
	if phys.Left {
		for k := -h; k < g.NY+h; k++ {
			for j := -h; j <= 0; j++ {
				op.Kx.Set(j, k, 0)
			}
		}
	}
	if phys.Right {
		for k := -h; k < g.NY+h; k++ {
			for j := g.NX; j < g.NX+h; j++ {
				op.Kx.Set(j, k, 0)
			}
		}
	}
	if phys.Down {
		for j := -h; j < g.NX+h; j++ {
			for k := -h; k <= 0; k++ {
				op.Ky.Set(j, k, 0)
			}
		}
	}
	if phys.Up {
		for j := -h; j < g.NX+h; j++ {
			for k := g.NY; k < g.NY+h; k++ {
				op.Ky.Set(j, k, 0)
			}
		}
	}
	return op, nil
}

func oracleBuildOperator3D(pool *par.Pool, density *grid.Field3D, dt float64, coef Coefficient, phys PhysicalSides3D) (*Operator3D, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("stencil: dt = %v must be positive and finite", dt)
	}
	if coef != Conductivity && coef != RecipConductivity {
		return nil, fmt.Errorf("stencil: unknown coefficient mode %d", int(coef))
	}
	g := density.Grid
	op := &Operator3D{
		Grid: g,
		Kx:   grid.NewField3D(g), Ky: grid.NewField3D(g), Kz: grid.NewField3D(g),
		Rx: dt / (g.DX * g.DX), Ry: dt / (g.DY * g.DY), Rz: dt / (g.DZ * g.DZ),
	}
	h := g.Halo
	w := grid.NewField3D(g)
	pool.For(-h, g.NZ+h, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := -h; j < g.NY+h; j++ {
				for i := -h; i < g.NX+h; i++ {
					rho := density.At(i, j, k)
					if rho <= 0 || math.IsNaN(rho) {
						w.Set(i, j, k, math.NaN())
						continue
					}
					if coef == RecipConductivity {
						w.Set(i, j, k, 1/rho)
					} else {
						w.Set(i, j, k, rho)
					}
				}
			}
		}
	})
	for _, v := range w.Data {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("stencil: non-positive or NaN density encountered")
		}
	}
	face := func(a, b float64) float64 { return (a + b) / (2 * a * b) }
	pool.For(-h+1, g.NZ+h, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := -h + 1; j < g.NY+h; j++ {
				for i := -h + 1; i < g.NX+h; i++ {
					wc := w.At(i, j, k)
					op.Kx.Set(i, j, k, op.Rx*face(w.At(i-1, j, k), wc))
					op.Ky.Set(i, j, k, op.Ry*face(w.At(i, j-1, k), wc))
					op.Kz.Set(i, j, k, op.Rz*face(w.At(i, j, k-1), wc))
				}
			}
		}
	})
	if phys.Left || phys.Right {
		for k := -h; k < g.NZ+h; k++ {
			for j := -h; j < g.NY+h; j++ {
				if phys.Left {
					for i := -h; i <= 0; i++ {
						op.Kx.Set(i, j, k, 0)
					}
				}
				if phys.Right {
					for i := g.NX; i < g.NX+h; i++ {
						op.Kx.Set(i, j, k, 0)
					}
				}
			}
		}
	}
	if phys.Down || phys.Up {
		for k := -h; k < g.NZ+h; k++ {
			for i := -h; i < g.NX+h; i++ {
				if phys.Down {
					for j := -h; j <= 0; j++ {
						op.Ky.Set(i, j, k, 0)
					}
				}
				if phys.Up {
					for j := g.NY; j < g.NY+h; j++ {
						op.Ky.Set(i, j, k, 0)
					}
				}
			}
		}
	}
	if phys.Back || phys.Front {
		for j := -h; j < g.NY+h; j++ {
			for i := -h; i < g.NX+h; i++ {
				if phys.Back {
					for k := -h; k <= 0; k++ {
						op.Kz.Set(i, j, k, 0)
					}
				}
				if phys.Front {
					for k := g.NZ; k < g.NZ+h; k++ {
						op.Kz.Set(i, j, k, 0)
					}
				}
			}
		}
	}
	return op, nil
}

// buildPools returns the worker counts the builder tests sweep, each
// with a grain of one row so that even small grids split into bands.
func buildPools(t *testing.T) []*par.Pool {
	var pools []*par.Pool
	for _, w := range []int{1, 2, 4, 7} {
		p := par.NewPool(w)
		t.Cleanup(p.Close)
		pools = append(pools, p.WithGrain(1))
	}
	return pools
}

// paddedDensity fills every padded cell, halos included, with a density
// spread over four decades.
func paddedDensity(rng *rand.Rand, data []float64) {
	for i := range data {
		data[i] = math.Pow(10, rng.Float64()*4-2)
	}
}

func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestBuildOperator2DMatchesOracle requires the row builder's Kx and Ky
// to equal the temporary-field builder's bit for bit, halos included,
// for both coefficient modes, all 16 PhysicalSides combinations and
// 1, 2, 4 and 7 workers.
func TestBuildOperator2DMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pools := buildPools(t)
	for trial := 0; trial < 6; trial++ {
		nx, ny, h := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(3)
		g := grid.MustGrid2D(nx, ny, h, -0.7, 3.1+rng.Float64(), 1.3, 2.9+rng.Float64())
		den := grid.NewField2D(g)
		paddedDensity(rng, den.Data)
		dt := 0.01 + rng.Float64()
		for _, coef := range []Coefficient{Conductivity, RecipConductivity} {
			for mask := 0; mask < 16; mask++ {
				phys := PhysicalSides{Left: mask&1 != 0, Right: mask&2 != 0, Down: mask&4 != 0, Up: mask&8 != 0}
				want, err := oracleBuildOperator2D(par.Serial, den, dt, coef, phys)
				if err != nil {
					t.Fatal(err)
				}
				for _, pool := range pools {
					got, err := BuildOperator2D(pool, den, dt, coef, phys)
					if err != nil {
						t.Fatal(err)
					}
					if got.Rx != want.Rx || got.Ry != want.Ry {
						t.Fatalf("%v %v: Rx, Ry = %v, %v, oracle %v, %v", g, coef, got.Rx, got.Ry, want.Rx, want.Ry)
					}
					for _, f := range []struct {
						name      string
						got, want *grid.Field2D
					}{{"Kx", got.Kx, want.Kx}, {"Ky", got.Ky, want.Ky}} {
						if i := firstDiff(f.got.Data, f.want.Data); i >= 0 {
							j, k := g.Coords(i)
							t.Fatalf("%v %v %+v, %d workers: %s(%d,%d) = %v, oracle %v",
								g, coef, phys, pool.Workers(), f.name, j, k, f.got.Data[i], f.want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestBuildOperator3DMatchesOracle is the 3D twin: Kx, Ky, Kz bitwise
// for both modes, all 64 PhysicalSides3D combinations, 1/2/4/7 workers.
func TestBuildOperator3DMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pools := buildPools(t)
	for trial := 0; trial < 3; trial++ {
		nx, ny, nz, h := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(2)
		g, err := grid.NewGrid3D(nx, ny, nz, h, 0.3, 1.7+rng.Float64(), -2, 1.1, 0, 0.9+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		den := grid.NewField3D(g)
		paddedDensity(rng, den.Data)
		dt := 0.01 + rng.Float64()
		for _, coef := range []Coefficient{Conductivity, RecipConductivity} {
			for mask := 0; mask < 64; mask++ {
				phys := PhysicalSides3D{Left: mask&1 != 0, Right: mask&2 != 0, Down: mask&4 != 0,
					Up: mask&8 != 0, Back: mask&16 != 0, Front: mask&32 != 0}
				want, err := oracleBuildOperator3D(par.Serial, den, dt, coef, phys)
				if err != nil {
					t.Fatal(err)
				}
				for _, pool := range pools {
					got, err := BuildOperator3D(pool, den, dt, coef, phys)
					if err != nil {
						t.Fatal(err)
					}
					if got.Rx != want.Rx || got.Ry != want.Ry || got.Rz != want.Rz {
						t.Fatalf("%v %v: scalings differ from the oracle", g, coef)
					}
					for _, f := range []struct {
						name      string
						got, want *grid.Field3D
					}{{"Kx", got.Kx, want.Kx}, {"Ky", got.Ky, want.Ky}, {"Kz", got.Kz, want.Kz}} {
						if i := firstDiff(f.got.Data, f.want.Data); i >= 0 {
							t.Fatalf("%v %v %+v, %d workers: %s[%d] = %v, oracle %v",
								g, coef, phys, pool.Workers(), f.name, i, f.got.Data[i], f.want.Data[i])
						}
					}
				}
			}
		}
	}
}

// badDensities are the values the builders must refuse.
var badDensities = []float64{math.NaN(), 0, -1, math.Inf(-1)}

// TestBuildOperatorBadDensityErrors puts one bad density at a time in
// every padded cell of a small grid — halo corners and edges as well as
// the interior — and requires the builders to fail exactly as the oracle
// does, on every worker count.
func TestBuildOperatorBadDensityErrors(t *testing.T) {
	pools := buildPools(t)
	g := grid.MustGrid2D(5, 4, 2, 0, 1, 0, 1)
	g3, err := grid.NewGrid3D(3, 4, 2, 2, 0, 1, 0, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := func(where string, got, want error) {
		t.Helper()
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%s: error %v, oracle %v", where, got, want)
		}
	}
	for _, bad := range badDensities {
		for _, coef := range []Coefficient{Conductivity, RecipConductivity} {
			den := uniformDensity(g, 2)
			for i := range den.Data {
				den.Data[i] = bad
				_, want := oracleBuildOperator2D(par.Serial, den, 0.1, coef, AllPhysical)
				for _, pool := range pools {
					_, got := BuildOperator2D(pool, den, 0.1, coef, AllPhysical)
					j, k := g.Coords(i)
					same(fmt.Sprintf("2D density(%d,%d) = %v, %v, %d workers", j, k, bad, coef, pool.Workers()), got, want)
				}
				den.Data[i] = 2
			}
			den3 := grid.NewField3D(g3)
			den3.Fill(2)
			for i := range den3.Data {
				den3.Data[i] = bad
				_, want := oracleBuildOperator3D(par.Serial, den3, 0.1, coef, AllPhysical3D)
				for _, pool := range pools {
					_, got := BuildOperator3D(pool, den3, 0.1, coef, AllPhysical3D)
					same(fmt.Sprintf("3D density[%d] = %v, %v, %d workers", i, bad, coef, pool.Workers()), got, want)
				}
				den3.Data[i] = 2
			}
		}
	}
}

// BenchmarkBuildOperator2D builds the operator of the 1024² crooked pipe
// (reciprocal-density coefficients, as the pipe2d rows run) on one and
// two workers, in ns per cell.
func BenchmarkBuildOperator2D(b *testing.B) {
	d := problem.CrookedPipeDeck(1024, 1024)
	g := grid.MustGrid2D(d.XCells, d.YCells, 2, d.XMin, d.XMax, d.YMin, d.YMax)
	den, en := grid.NewField2D(g), grid.NewField2D(g)
	if err := problem.Paint(d.States, den, en); err != nil {
		b.Fatal(err)
	}
	den.ReflectHalos(g.Halo)
	for _, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		b.Cleanup(pool.Close)
		b.Run(fmt.Sprintf("%dx%d/workers=%d", g.NX, g.NY, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildOperator2D(pool, den, d.InitialTimestep, RecipConductivity, AllPhysical); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.Cells()), "ns/cell")
		})
	}
}

// BenchmarkBuildOperator3D is the 3D twin on the 128³ two-state box
// deck (the bm3d row).
func BenchmarkBuildOperator3D(b *testing.B) {
	d := problem.BenchmarkDeck3D(128)
	g, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, 2, d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
	if err != nil {
		b.Fatal(err)
	}
	den, en := grid.NewField3D(g), grid.NewField3D(g)
	if err := problem.Paint3D(d.States, den, en); err != nil {
		b.Fatal(err)
	}
	den.ReflectHalos(g.Halo)
	for _, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		b.Cleanup(pool.Close)
		b.Run(fmt.Sprintf("%dx%dx%d/workers=%d", g.NX, g.NY, g.NZ, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildOperator3D(pool, den, d.InitialTimestep, RecipConductivity, AllPhysical3D); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.Cells()), "ns/cell")
		})
	}
}

package precond

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// Every preconditioner is one body over the row walker behind a 2D and a
// 3D adapter. These tests hold both adapters to the per-dimension bodies
// the preconditioners had before the walker (oracle_bodies_test.go) BIT
// FOR BIT: every cell of r and z, halo included, on interior, depth-2
// extended, halo-reaching, one-row (one-plane) and empty bounds, with
// outer extents ≡ 0, 1, 2 and 3 mod 4 (truncated strips), with r == z and
// r ≠ z, on 1, 2 and 4 workers at grain 1. Each combination is its own
// subtest, so -run 'TestPrecondMatchesOracle2DBitwise/BlockJacobi' checks
// one body.

// applyFn is an Apply or Apply3D method value, or its oracle.
type applyFn[B, F any] func(p *par.Pool, b B, r, z F)

type oracleCase[B, F any] struct {
	name      string
	got, want applyFn[B, F]
}

// oracleSetup is one grid's operator, preconditioners, bounds and
// operands: outer extents ≡ 0, 1, 2 and 3 mod 4 are four setups.
type oracleSetup[B, F any] struct {
	name   string
	cases  []oracleCase[B, F]
	bounds map[string]B
	r, z   F
}

// runOracle runs every preconditioner as its own subtest, over every
// setup and bounds.
func runOracle[B any, F interface{ Clone() F }](t *testing.T, setups []oracleSetup[B, F], data func(F) []float64) {
	for ci, c := range setups[0].cases {
		t.Run(c.name, func(t *testing.T) {
			for _, s := range setups {
				for bn, b := range s.bounds {
					t.Run(s.name+"/"+bn, func(t *testing.T) {
						bitwise(t, s.cases[ci], b, s.r, s.z, data)
					})
				}
			}
		})
	}
}

// bitwise runs one case and its oracle over b on copies of r and z, on
// every pool and both aliasings, and fails on the first cell that differs.
func bitwise[B any, F interface{ Clone() F }](t *testing.T, c oracleCase[B, F], b B, r, z F, data func(F) []float64) {
	for _, w := range []int{1, 2, 4} {
		pool := par.NewPool(w).WithGrain(1)
		for _, alias := range []bool{false, true} {
			t.Run(fmt.Sprintf("w%d/alias=%v", w, alias), func(t *testing.T) {
				gr, gz, wr, wz := r.Clone(), z.Clone(), r.Clone(), z.Clone()
				if alias {
					gz, wz = gr, wr
				}
				c.got(pool, b, gr, gz)
				c.want(pool, b, wr, wz)
				if i := firstDiff(data(gz), data(wz)); i >= 0 {
					t.Fatalf("z[%d] = %v, oracle %v", i, data(gz)[i], data(wz)[i])
				}
				if i := firstDiff(data(gr), data(wr)); i >= 0 {
					t.Fatalf("r[%d] = %v, oracle %v", i, data(gr)[i], data(wr)[i])
				}
			})
		}
		pool.Close()
	}
}

// randomData fills every cell of d, halo included.
func randomData(rng *rand.Rand, d []float64) {
	for i := range d {
		d[i] = rng.Float64()*2 - 1
	}
}

func TestPrecondMatchesOracle2DBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var setups []oracleSetup[grid.Bounds, *grid.Field2D]
	for _, ny := range []int{8, 9, 10, 11} {
		g := grid.MustGrid2D(7, ny, 4, 0, 1.3, 0, 2.1)
		den := grid.NewField2D(g)
		for i := range den.Data {
			den.Data[i] = math.Pow(10, rng.Float64()*4-2)
		}
		op, err := stencil.BuildOperator2D(par.Serial, den, 0.3, stencil.Conductivity, stencil.AllPhysical)
		if err != nil {
			t.Fatal(err)
		}
		diag := grid.NewField2D(g)
		op.Diagonal(par.Serial, g.Interior().Expand(g.Halo-1, g), diag)
		jac, blk := NewJacobi(par.Serial, op), NewBlockJacobi(par.Serial, op, 0)
		r, z := grid.NewField2D(g), grid.NewField2D(g)
		randomData(rng, r.Data)
		randomData(rng, z.Data)
		setups = append(setups, oracleSetup[grid.Bounds, *grid.Field2D]{
			name: fmt.Sprintf("ny=%d", ny),
			cases: []oracleCase[grid.Bounds, *grid.Field2D]{
				{"None", NewNone().Apply, oracleNone},
				{"Jacobi", jac.Apply, func(p *par.Pool, b grid.Bounds, r, z *grid.Field2D) {
					oracleJacobiApply(p, jac.InvDiag(), b, r, z)
				}},
				{"BlockJacobi", blk.Apply, func(p *par.Pool, b grid.Bounds, r, z *grid.Field2D) {
					oracleBlockJacobi(p, op, diag, DefaultBlockSize, b, r, z)
				}},
			},
			bounds: map[string]grid.Bounds{
				"interior": g.Interior(),
				"depth2":   g.Interior().Expand(2, g),
				"halo":     g.Interior().Expand(g.Halo-1, g),
				"onerow":   {X0: 0, X1: g.NX, Y0: 3, Y1: 4},
				"empty":    {X0: 2, X1: 2, Y0: 0, Y1: g.NY},
			},
			r: r, z: z,
		})
	}
	runOracle(t, setups, func(f *grid.Field2D) []float64 { return f.Data })
}

func TestPrecondMatchesOracle3DBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var setups []oracleSetup[grid.Bounds3D, *grid.Field3D]
	for _, nz := range []int{4, 5, 6, 7} {
		g, err := grid.NewGrid3D(5, 6, nz, 4, 0, 1.7, 0, 0.8, 0, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		den := grid.NewField3D(g)
		for i := range den.Data {
			den.Data[i] = math.Pow(10, rng.Float64()*4-2)
		}
		op, err := stencil.BuildOperator3D(par.Serial, den, 0.3, stencil.Conductivity, stencil.AllPhysical3D)
		if err != nil {
			t.Fatal(err)
		}
		diag := grid.NewField3D(g)
		op.Diagonal(par.Serial, g.Interior().Expand(g.Halo-1, g), diag)
		jac, blk := NewJacobi3D(par.Serial, op), NewBlockJacobi3D(par.Serial, op, 0)
		r, z := grid.NewField3D(g), grid.NewField3D(g)
		randomData(rng, r.Data)
		randomData(rng, z.Data)
		setups = append(setups, oracleSetup[grid.Bounds3D, *grid.Field3D]{
			name: fmt.Sprintf("nz=%d", nz),
			cases: []oracleCase[grid.Bounds3D, *grid.Field3D]{
				{"None", NewNone3D().Apply3D, oracleNone3D},
				{"Jacobi", jac.Apply3D, func(p *par.Pool, b grid.Bounds3D, r, z *grid.Field3D) {
					oracleJacobiApply3D(p, jac.InvDiag3D(), b, r, z)
				}},
				{"BlockJacobi", blk.Apply3D, func(p *par.Pool, b grid.Bounds3D, r, z *grid.Field3D) {
					oracleBlockJacobi3D(p, op, diag, DefaultBlockSize, b, r, z)
				}},
			},
			bounds: map[string]grid.Bounds3D{
				"interior": g.Interior(),
				"depth2":   g.Interior().Expand(2, g),
				"halo":     g.Interior().Expand(g.Halo-1, g),
				"oneplane": {X0: 0, X1: g.NX, Y0: 0, Y1: g.NY, Z0: 2, Z1: 3},
				"empty":    {X0: 0, X1: g.NX, Y0: 3, Y1: 3, Z0: 0, Z1: g.NZ},
			},
			r: r, z: z,
		})
	}
	runOracle(t, setups, func(f *grid.Field3D) []float64 { return f.Data })
}

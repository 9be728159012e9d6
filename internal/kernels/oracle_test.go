package kernels

import (
	"fmt"
	"math"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// Every kernel is one body over the row walker behind a 2D and a 3D
// adapter. These tests hold both adapters to the per-dimension bodies
// the kernels had before the walker (oracle_bodies_test.go) BIT FOR BIT:
// every cell of every operand field, halo included, and every returned
// dot, on interior, depth-2 extended, ragged (width mod 4 ∈ {1, 2, 3}),
// offset and empty bounds, with and without a folded diagonal, on 1, 2
// and 4 workers at grain 1. Each kernel is its own subtest, so
// -run TestKernelsMatchOracle2DBitwise/FusedCGStep checks one body.

// oraclePools are the worker counts the bitwise tests run on.
func oraclePools() map[string]*par.Pool {
	return map[string]*par.Pool{
		"w1": par.NewPool(1),
		"w2": par.NewPool(2).WithGrain(1),
		"w4": par.NewPool(4).WithGrain(1),
	}
}

// pick returns the kernel under test, or its oracle.
func pick[F any](oracle bool, kernel, old F) F {
	if oracle {
		return old
	}
	return kernel
}

// oracleCase2 runs one kernel (or its oracle) on the fields f over b with
// the folded diagonal m (nil: identity) and returns its scalars.
type oracleCase2 struct {
	name string
	run  func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, oracle bool) []float64
}

var oracleCases2 = []oracleCase2{
	{"Dot", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		return []float64{pick(o, Dot, oracleDot)(p, b, f[0], f[1])}
	}},
	{"Dot2", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		xy, yz := pick(o, Dot2, oracleDot2)(p, b, f[0], f[1], f[2])
		return []float64{xy, yz}
	}},
	{"Axpy", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		pick(o, Axpy, oracleAxpy)(p, b, 0.37, f[0], f[1])
		return nil
	}},
	{"Xpay", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		pick(o, Xpay, oracleXpay)(p, b, f[0], 0.73, f[1])
		return nil
	}},
	{"Copy", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		pick(o, Copy, oracleCopy)(p, b, f[0], f[1])
		return nil
	}},
	{"ScaleTo", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		pick(o, ScaleTo, oracleScaleTo)(p, b, -1.3, f[0], f[1])
		return nil
	}},
	{"AxpyAxpy", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		pick(o, AxpyAxpy, oracleAxpyAxpy)(p, b, 0.37, f[0], f[1], -0.37, f[2], f[3])
		return nil
	}},
	{"AxpbyPre", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, o bool) []float64 {
		pick(o, AxpbyPre, oracleAxpbyPre)(p, b, 0.9, f[0], 0.4, m, f[1])
		return nil
	}},
	{"FusedCGDirections", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, o bool) []float64 {
		pick(o, FusedCGDirections, oracleFusedCGDirections)(p, b, m, f[0], f[1], 0.73, f[2], f[3])
		return nil
	}},
	{"FusedCGUpdate", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, o bool) []float64 {
		gamma, rr := pick(o, FusedCGUpdate, oracleFusedCGUpdate)(p, b, 0.31, f[0], f[1], f[2], f[3], m)
		return []float64{gamma, rr}
	}},
	{"FusedPPCGInner", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, o bool) []float64 {
		in := f[0].Grid.Interior()
		pick(o, FusedPPCGInner, oracleFusedPPCGInner)(p, b, in, 0.83, 0.29, f[0], f[1], m, f[2], f[3])
		return nil
	}},
	{"FusedCGStep", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, o bool) []float64 {
		gamma, rr := pick(o, FusedCGStep, oracleFusedCGStep)(p, b, m, f[0], f[1], 0.73, 0.31, f[2], f[3], f[4])
		return []float64{gamma, rr}
	}},
	{"FusedCGStep/ring", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, o bool) []float64 {
		gamma, rr := pick(o, FusedCGStep, oracleFusedCGStep)(p, b, m, f[0], f[1], 0.73, 0.31, f[2], f[3], nil)
		return []float64{gamma, rr}
	}},
	{"PPCGInnerInit", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, o bool) []float64 {
		pick(o, PPCGInnerInit, oraclePPCGInnerInit)(p, b, 0.37, f[0], f[1], f[2], f[3], f[4], 1/1.9, m, f[5], f[6])
		return nil
	}},
	{"PPCGInnerInit/pre-loop", func(p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, o bool) []float64 {
		pick(o, PPCGInnerInit, oraclePPCGInnerInit)(p, b, 0.37, nil, nil, f[2], f[3], f[4], 1/1.9, m, f[5], f[6])
		return nil
	}},
}

// oracleCase3 is oracleCase2 over a 3D box.
type oracleCase3 struct {
	name string
	run  func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, oracle bool) []float64
}

var oracleCases3 = []oracleCase3{
	{"Dot3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		return []float64{pick(o, Dot3D, oracleDot3D)(p, b, f[0], f[1])}
	}},
	{"Dot23D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		xy, yz := pick(o, Dot23D, oracleDot23D)(p, b, f[0], f[1], f[2])
		return []float64{xy, yz}
	}},
	{"Axpy3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		pick(o, Axpy3D, oracleAxpy3D)(p, b, 0.37, f[0], f[1])
		return nil
	}},
	{"Xpay3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		pick(o, Xpay3D, oracleXpay3D)(p, b, f[0], 0.73, f[1])
		return nil
	}},
	{"Copy3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		pick(o, Copy3D, oracleCopy3D)(p, b, f[0], f[1])
		return nil
	}},
	{"ScaleTo3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		pick(o, ScaleTo3D, oracleScaleTo3D)(p, b, -1.3, f[0], f[1])
		return nil
	}},
	{"AxpyAxpy3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		pick(o, AxpyAxpy3D, oracleAxpyAxpy3D)(p, b, 0.37, f[0], f[1], -0.37, f[2], f[3])
		return nil
	}},
	{"AxpbyPre3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, o bool) []float64 {
		pick(o, AxpbyPre3D, oracleAxpbyPre3D)(p, b, 0.9, f[0], 0.4, m, f[1])
		return nil
	}},
	{"FusedCGDirections3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, o bool) []float64 {
		pick(o, FusedCGDirections3D, oracleFusedCGDirections3D)(p, b, m, f[0], f[1], 0.73, f[2], f[3])
		return nil
	}},
	{"FusedCGUpdate3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, o bool) []float64 {
		gamma, rr := pick(o, FusedCGUpdate3D, oracleFusedCGUpdate3D)(p, b, 0.31, f[0], f[1], f[2], f[3], m)
		return []float64{gamma, rr}
	}},
	{"FusedPPCGInner3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, o bool) []float64 {
		in := f[0].Grid.Interior()
		pick(o, FusedPPCGInner3D, oracleFusedPPCGInner3D)(p, b, in, 0.83, 0.29, f[0], f[1], m, f[2], f[3])
		return nil
	}},
	{"FusedCGStep3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, o bool) []float64 {
		gamma, rr := pick(o, FusedCGStep3D, oracleFusedCGStep3D)(p, b, m, f[0], f[1], 0.73, 0.31, f[2], f[3], f[4])
		return []float64{gamma, rr}
	}},
	{"FusedCGStep3D/ring", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, o bool) []float64 {
		gamma, rr := pick(o, FusedCGStep3D, oracleFusedCGStep3D)(p, b, m, f[0], f[1], 0.73, 0.31, f[2], f[3], nil)
		return []float64{gamma, rr}
	}},
	{"PPCGInnerInit3D", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, o bool) []float64 {
		pick(o, PPCGInnerInit3D, oraclePPCGInnerInit3D)(p, b, 0.37, f[0], f[1], f[2], f[3], f[4], 1/1.9, m, f[5], f[6])
		return nil
	}},
	{"PPCGInnerInit3D/pre-loop", func(p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, o bool) []float64 {
		pick(o, PPCGInnerInit3D, oraclePPCGInnerInit3D)(p, b, 0.37, nil, nil, f[2], f[3], f[4], 1/1.9, m, f[5], f[6])
		return nil
	}},
}

// oracleFields is how many operand fields a case may use.
const oracleFields = 7

// sameBits reports the first scalar or field cell at which got and want
// differ bitwise, or "".
func sameBits(got, want []float64, gotF, wantF [][]float64) string {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("scalar %d = %v, oracle %v", i, got[i], want[i])
		}
	}
	for f := range wantF {
		if i := firstDiff(gotF[f], wantF[f]); i >= 0 {
			return fmt.Sprintf("field %d differs at flat index %d: %v vs %v", f, i, gotF[f][i], wantF[f][i])
		}
	}
	return ""
}

func TestKernelsMatchOracle2DBitwise(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 2) // width 19 ≡ 3 (mod 4)
	in := g.Interior()
	bounds := []grid.Bounds{
		in,
		in.Expand(2, g),                // depth-2 extended, width 23
		{X0: 1, X1: 18, Y0: 2, Y1: 11}, // width 17 ≡ 1
		{X0: -1, X1: 9, Y0: -2, Y1: 6}, // width 10 ≡ 2, reaching into the halo
		{X0: 3, X1: 7, Y0: 5, Y1: 6},   // width 4, one row
		{X0: 7, X1: 8, Y0: 0, Y1: 13},  // one column
		{X0: 4, X1: 4, Y0: 0, Y1: 13},  // empty: no columns
		{X0: 0, X1: 19, Y0: 6, Y1: 6},  // empty: no rows
		{X0: 9, X1: 3, Y0: 8, Y1: 2},   // empty: inverted
	}
	mk := func(seed int64) *grid.Field2D { return testField(g, seed) }
	pools := oraclePools()
	for _, pool := range pools {
		defer pool.Close()
	}
	for _, c := range oracleCases2 {
		t.Run(c.name, func(t *testing.T) {
			for pname, pool := range pools {
				for _, b := range bounds {
					for _, folded := range []bool{false, true} {
						var m *grid.Field2D
						if folded {
							m = mk(99)
						}
						got, want := make([]*grid.Field2D, oracleFields), make([]*grid.Field2D, oracleFields)
						gotD, wantD := make([][]float64, oracleFields), make([][]float64, oracleFields)
						for i := range got {
							got[i], want[i] = mk(int64(i+1)), mk(int64(i+1))
							gotD[i], wantD[i] = got[i].Data, want[i].Data
						}
						sg := c.run(pool, b, got, m, false)
						sw := c.run(pool, b, want, m, true)
						if d := sameBits(sg, sw, gotD, wantD); d != "" {
							t.Errorf("%s %v minv=%v: %s", pname, b, folded, d)
						}
					}
				}
			}
		})
	}
}

func TestKernelsMatchOracle3DBitwise(t *testing.T) {
	g := grid.UnitGrid3D(11, 7, 5, 2) // width 11 ≡ 3 (mod 4)
	in := g.Interior()
	bounds := []grid.Bounds3D{
		in,
		in.Expand(2, g), // depth-2 extended, width 15
		{X0: 1, X1: 10, Y0: 1, Y1: 6, Z0: 1, Z1: 4},   // width 9 ≡ 1
		{X0: -1, X1: 5, Y0: -2, Y1: 3, Z0: -1, Z1: 2}, // width 6 ≡ 2, into the halo
		{X0: 2, X1: 6, Y0: 0, Y1: 7, Z0: 2, Z1: 3},    // width 4, one plane
		{X0: 0, X1: 11, Y0: 3, Y1: 4, Z0: 0, Z1: 5},   // one row per plane
		{X0: 5, X1: 5, Y0: 0, Y1: 7, Z0: 0, Z1: 5},    // empty: no columns
		{X0: 0, X1: 11, Y0: 4, Y1: 4, Z0: 0, Z1: 5},   // empty: no rows
		{X0: 0, X1: 11, Y0: 0, Y1: 7, Z0: 3, Z1: 3},   // empty: no planes
	}
	mk := func(seed int64) *grid.Field3D {
		f := grid.NewField3D(g)
		rng := newRng(seed)
		for i := range f.Data {
			f.Data[i] = rng.Float64()*2 - 1
		}
		return f
	}
	pools := oraclePools()
	for _, pool := range pools {
		defer pool.Close()
	}
	for _, c := range oracleCases3 {
		t.Run(c.name, func(t *testing.T) {
			for pname, pool := range pools {
				for _, b := range bounds {
					for _, folded := range []bool{false, true} {
						var m *grid.Field3D
						if folded {
							m = mk(99)
						}
						got, want := make([]*grid.Field3D, oracleFields), make([]*grid.Field3D, oracleFields)
						gotD, wantD := make([][]float64, oracleFields), make([][]float64, oracleFields)
						for i := range got {
							got[i], want[i] = mk(int64(i+1)), mk(int64(i+1))
							gotD[i], wantD[i] = got[i].Data, want[i].Data
						}
						sg := c.run(pool, b, got, m, false)
						sw := c.run(pool, b, want, m, true)
						if d := sameBits(sg, sw, gotD, wantD); d != "" {
							t.Errorf("%s %v minv=%v: %s", pname, b, folded, d)
						}
					}
				}
			}
		})
	}
}

package stencil

import (
	"fmt"
	"math"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// Every stencil sweep is one body over the row walker behind a 2D and a
// 3D adapter. These tests hold both adapters to the per-dimension bodies
// the sweeps had before the walker (oracle_bodies_test.go) BIT FOR BIT:
// every cell of every field a sweep reads or writes, halo included, and
// every returned scalar. The sweeps run on interior, depth-2 extended,
// ragged (width mod 4 ∈ {1, 2, 3}), halo-reaching, one-row, one-column,
// one-plane and empty bounds, with and without a folded diagonal, on 1, 2
// and 4 workers at grain 1; CGIter with every side mirrored, with and
// without a rows callback; ChebySteps in blocks of 1, 2 and 4 steps. Each sweep is its own subtest, so
// -run TestSweepsMatchOracle2DBitwise/ApplyPreDot checks one body.

// oraclePools are the worker counts the bitwise tests run on.
func oraclePools(t *testing.T) map[string]*par.Pool {
	pools := map[string]*par.Pool{}
	for _, w := range []int{1, 2, 4} {
		p := par.NewPool(w).WithGrain(1)
		t.Cleanup(p.Close)
		pools[fmt.Sprintf("w%d", w)] = p
	}
	return pools
}

// pick returns the sweep under test, or its oracle.
func pick[F any](oracle bool, sweep, old F) F {
	if oracle {
		return old
	}
	return sweep
}

// diffs reports the first scalar or field cell at which got and want
// differ bitwise, or "".
func diffs(got, want []float64, gotF, wantF [][]float64) string {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("scalar %d = %v, oracle %v", i, got[i], want[i])
		}
	}
	for f := range wantF {
		if i := sameBits(gotF[f], wantF[f]); i >= 0 {
			return fmt.Sprintf("field %d differs at flat index %d: %v vs %v", f, i, gotF[f][i], wantF[f][i])
		}
	}
	return ""
}

// sweepCase2 runs one 2D sweep (or its oracle) over b on the fields f
// with the folded diagonal m (nil: identity) and returns its scalars.
type sweepCase2 struct {
	name string
	run  func(op *Operator2D, p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, oracle bool) []float64
}

var sweepCases2 = []sweepCase2{
	{"Apply", func(op *Operator2D, p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		pick(o, op.Apply, op.oracleApply)(p, b, f[0], f[1])
		return nil
	}},
	{"ApplyDot", func(op *Operator2D, p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		return []float64{pick(o, op.ApplyDot, op.oracleApplyDot)(p, b, f[0], f[1])}
	}},
	{"ApplyPreDot", func(op *Operator2D, p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, o bool) []float64 {
		return []float64{pick(o, op.ApplyPreDot, op.oracleApplyPreDot)(p, b, m, f[0], f[1])}
	}},
	{"ApplyPreDotInit", func(op *Operator2D, p *par.Pool, b grid.Bounds, f []*grid.Field2D, m *grid.Field2D, o bool) []float64 {
		gamma, delta, rr := pick(o, op.ApplyPreDotInit, op.oracleApplyPreDotInit)(p, b, m, f[0], f[1])
		return []float64{gamma, delta, rr}
	}},
	{"Residual", func(op *Operator2D, p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		pick(o, op.Residual, op.oracleResidual)(p, b, f[0], f[1], f[2])
		return nil
	}},
	{"Diagonal", func(op *Operator2D, p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		pick(o, op.Diagonal, func(p *par.Pool, b grid.Bounds, d *grid.Field2D) { op.oracleDiagonal(p, b, d, false) })(p, b, f[0])
		return nil
	}},
	{"InvDiagonal", func(op *Operator2D, p *par.Pool, b grid.Bounds, f []*grid.Field2D, _ *grid.Field2D, o bool) []float64 {
		pick(o, op.InvDiagonal, func(p *par.Pool, b grid.Bounds, d *grid.Field2D) { op.oracleDiagonal(p, b, d, true) })(p, b, f[0])
		return nil
	}},
}

// sweepCase3 is sweepCase2 over a 3D box.
type sweepCase3 struct {
	name string
	run  func(op *Operator3D, p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, oracle bool) []float64
}

var sweepCases3 = []sweepCase3{
	{"Apply", func(op *Operator3D, p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		pick(o, op.Apply, op.oracleApply)(p, b, f[0], f[1])
		return nil
	}},
	{"ApplyDot", func(op *Operator3D, p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		return []float64{pick(o, op.ApplyDot, op.oracleApplyDot)(p, b, f[0], f[1])}
	}},
	{"ApplyPreDot", func(op *Operator3D, p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, o bool) []float64 {
		return []float64{pick(o, op.ApplyPreDot, op.oracleApplyPreDot)(p, b, m, f[0], f[1])}
	}},
	{"ApplyPreDotInit", func(op *Operator3D, p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, m *grid.Field3D, o bool) []float64 {
		gamma, delta, rr := pick(o, op.ApplyPreDotInit, op.oracleApplyPreDotInit)(p, b, m, f[0], f[1])
		return []float64{gamma, delta, rr}
	}},
	{"Residual", func(op *Operator3D, p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		pick(o, op.Residual, op.oracleResidual)(p, b, f[0], f[1], f[2])
		return nil
	}},
	{"Diagonal", func(op *Operator3D, p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		pick(o, op.Diagonal, func(p *par.Pool, b grid.Bounds3D, d *grid.Field3D) { op.oracleDiagonal(p, b, d, false) })(p, b, f[0])
		return nil
	}},
	{"InvDiagonal", func(op *Operator3D, p *par.Pool, b grid.Bounds3D, f []*grid.Field3D, _ *grid.Field3D, o bool) []float64 {
		pick(o, op.InvDiagonal, func(p *par.Pool, b grid.Bounds3D, d *grid.Field3D) { op.oracleDiagonal(p, b, d, true) })(p, b, f[0])
		return nil
	}},
}

// oracleFields is how many operand fields a sweep may use.
const oracleFields = 3

func TestSweepsMatchOracle2DBitwise(t *testing.T) {
	g := grid.UnitGrid2D(19, 13, 3) // width 19 ≡ 3 (mod 4)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 200), 0.04, Conductivity, PhysicalSides{Left: true, Up: true})
	if err != nil {
		t.Fatal(err)
	}
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
	pools := oraclePools(t)
	for _, c := range sweepCases2 {
		t.Run(c.name, func(t *testing.T) {
			for pname, pool := range pools {
				for _, b := range bounds {
					for _, folded := range []bool{false, true} {
						var m *grid.Field2D
						if folded {
							m = positiveField(g, 99)
						}
						got, want := make([]*grid.Field2D, oracleFields), make([]*grid.Field2D, oracleFields)
						gotD, wantD := make([][]float64, oracleFields), make([][]float64, oracleFields)
						for i := range got {
							got[i], want[i] = randomField(g, int64(i+1)), randomField(g, int64(i+1))
							gotD[i], wantD[i] = got[i].Data, want[i].Data
						}
						sg := c.run(op, pool, b, got, m, false)
						sw := c.run(op, pool, b, want, m, true)
						if d := diffs(sg, sw, gotD, wantD); d != "" {
							t.Errorf("%s %v minv=%v: %s", pname, b, folded, d)
						}
					}
				}
			}
		})
	}
}

func TestSweepsMatchOracle3DBitwise(t *testing.T) {
	g := grid.UnitGrid3D(11, 7, 5, 3) // width 11 ≡ 3 (mod 4)
	op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 201), 0.04, Conductivity, PhysicalSides3D{Left: true, Up: true, Back: true})
	if err != nil {
		t.Fatal(err)
	}
	in := g.Interior()
	bounds := []grid.Bounds3D{
		in,
		in.Expand(2, g), // depth-2 extended, width 15
		{X0: 1, X1: 10, Y0: 1, Y1: 6, Z0: 1, Z1: 4},   // width 9 ≡ 1
		{X0: -1, X1: 5, Y0: -2, Y1: 3, Z0: -1, Z1: 2}, // width 6 ≡ 2, into the halo
		{X0: 2, X1: 6, Y0: 0, Y1: 7, Z0: 2, Z1: 3},    // width 4, one plane
		{X0: 0, X1: 11, Y0: 3, Y1: 4, Z0: 0, Z1: 5},   // one row per plane
		{X0: 1, X1: 8, Y0: 3, Y1: 4, Z0: 4, Z1: 5},    // one row
		{X0: 5, X1: 5, Y0: 0, Y1: 7, Z0: 0, Z1: 5},    // empty: no columns
		{X0: 0, X1: 11, Y0: 4, Y1: 4, Z0: 0, Z1: 5},   // empty: no rows
		{X0: 0, X1: 11, Y0: 0, Y1: 7, Z0: 3, Z1: 3},   // empty: no planes
	}
	pools := oraclePools(t)
	for _, c := range sweepCases3 {
		t.Run(c.name, func(t *testing.T) {
			for pname, pool := range pools {
				for _, b := range bounds {
					for _, folded := range []bool{false, true} {
						var m *grid.Field3D
						if folded {
							m = fullField3D(g, 99, true)
						}
						got, want := make([]*grid.Field3D, oracleFields), make([]*grid.Field3D, oracleFields)
						gotD, wantD := make([][]float64, oracleFields), make([][]float64, oracleFields)
						for i := range got {
							got[i], want[i] = fullField3D(g, int64(i+1), false), fullField3D(g, int64(i+1), false)
							gotD[i], wantD[i] = got[i].Data, want[i].Data
						}
						sg := c.run(op, pool, b, got, m, false)
						sw := c.run(op, pool, b, want, m, true)
						if d := diffs(sg, sw, gotD, wantD); d != "" {
							t.Errorf("%s %v minv=%v: %s", pname, b, folded, d)
						}
					}
				}
			}
		})
	}
}

// cgCall is the state of one CGIter call: its fields, its scalars and
// how often the rows callback saw each row of in.
type cgCall struct {
	fields  [][]float64
	scalars []float64
	calls   []int
}

func (c cgCall) diff(o cgCall) string {
	if d := diffs(c.scalars, o.scalars, c.fields, o.fields); d != "" {
		return d
	}
	for i := range c.calls {
		if c.calls[i] != o.calls[i] {
			return fmt.Sprintf("rows saw row %d %d times, oracle %d", i, c.calls[i], o.calls[i])
		}
	}
	return ""
}

func TestCGIterMatchesOracleBitwise(t *testing.T) {
	pools := oraclePools(t)
	t.Run("2D", func(t *testing.T) {
		g := grid.UnitGrid2D(13, 9, 3) // width 13 ≡ 1 (mod 4)
		op, err := BuildOperator2D(par.Serial, randomDensity(g, 210), 0.04, Conductivity, PhysicalSides{})
		if err != nil {
			t.Fatal(err)
		}
		in := g.Interior()
		run := func(pool *par.Pool, m *grid.Field2D, hook, oracle bool) cgCall {
			f := make([]*grid.Field2D, 5)
			c := cgCall{fields: make([][]float64, 5), calls: make([]int, g.NY)}
			for i := range f {
				f[i] = randomField(g, int64(211+i))
				c.fields[i] = f[i].Data
			}
			var rows func(k int)
			if hook {
				rows = func(k int) { c.calls[k]++ }
			}
			// The oracle predates CGIter's pre callback (nil pre is the
			// pass it describes) and takes its step bounds, matvec bounds,
			// interior and mirrored sides apart; CGIter's are the interior
			// three times over, every side mirrored.
			cgIter := func(pool *par.Pool, _, _, _ grid.Bounds, _ PhysicalSides, minv, r, w *grid.Field2D, beta, alpha float64, p, s, x *grid.Field2D, rows func(k int)) (float64, float64, float64) {
				return op.CGIter(pool, minv, r, w, beta, alpha, p, s, x, nil, rows)
			}
			gamma, rr, delta := pick(oracle, cgIter, op.oracleCGIter)(pool, in, in, in, AllPhysical, m, f[0], f[1], 0.73, 0.31, f[2], f[3], f[4], rows)
			c.scalars = []float64{gamma, rr, delta}
			return c
		}
		for pname, pool := range pools {
			for _, m := range []*grid.Field2D{nil, positiveField(g, 219)} {
				for _, hook := range []bool{false, true} {
					if d := run(pool, m, hook, false).diff(run(pool, m, hook, true)); d != "" {
						t.Errorf("%s minv=%v rows=%v: %s", pname, m != nil, hook, d)
					}
				}
			}
		}
	})
	t.Run("3D", func(t *testing.T) {
		g := grid.UnitGrid3D(10, 5, 6, 3) // width 10 ≡ 2 (mod 4)
		op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 220), 0.04, Conductivity, PhysicalSides3D{})
		if err != nil {
			t.Fatal(err)
		}
		in := g.Interior()
		run := func(pool *par.Pool, m *grid.Field3D, hook, oracle bool) cgCall {
			f := make([]*grid.Field3D, 5)
			c := cgCall{fields: make([][]float64, 5), calls: make([]int, g.NY*g.NZ)}
			for i := range f {
				f[i] = fullField3D(g, int64(221+i), false)
				c.fields[i] = f[i].Data
			}
			var rows func(j, k int)
			if hook {
				rows = func(j, k int) { c.calls[k*g.NY+j]++ }
			}
			cgIter := func(pool *par.Pool, _, _, _ grid.Bounds3D, _ PhysicalSides3D, minv, r, w *grid.Field3D, beta, alpha float64, p, s, x *grid.Field3D, rows func(j, k int)) (float64, float64, float64) {
				return op.CGIter(pool, minv, r, w, beta, alpha, p, s, x, nil, rows)
			}
			gamma, rr, delta := pick(oracle, cgIter, op.oracleCGIter)(pool, in, in, in, AllPhysical3D, m, f[0], f[1], 0.73, 0.31, f[2], f[3], f[4], rows)
			c.scalars = []float64{gamma, rr, delta}
			return c
		}
		for pname, pool := range pools {
			for _, m := range []*grid.Field3D{nil, fullField3D(g, 229, true)} {
				for _, hook := range []bool{false, true} {
					if d := run(pool, m, hook, false).diff(run(pool, m, hook, true)); d != "" {
						t.Errorf("%s minv=%v rows=%v: %s", pname, m != nil, hook, d)
					}
				}
			}
		}
	})
}

// TestChebyStepsMatchOracleBitwise: blocks of 1, 2 and 4 steps, each
// step's bounds the matrix-powers shape (step j extended steps−1−j cells
// on every side, or on the right and upper sides only), minv nil or not.
func TestChebyStepsMatchOracleBitwise(t *testing.T) {
	pools := oraclePools(t)
	t.Run("2D", func(t *testing.T) {
		g := grid.UnitGrid2D(17, 11, 4) // width 17 ≡ 1 (mod 4)
		op, err := BuildOperator2D(par.Serial, randomDensity(g, 230), 0.04, Conductivity, AllPhysical)
		if err != nil {
			t.Fatal(err)
		}
		in := g.Interior()
		for _, steps := range []int{1, 2, 4} {
			alphas, betas := chebyCoefs(steps)
			for _, all := range []bool{true, false} {
				bs := make([]grid.Bounds, steps)
				for j := range bs {
					e := steps - 1 - j
					if all {
						bs[j] = in.Expand(e, g)
					} else {
						bs[j] = in.ExpandSides(0, e, 0, e, g)
					}
				}
				for pname, pool := range pools {
					for _, m := range []*grid.Field2D{nil, positiveField(g, 239)} {
						run := func(oracle bool) [][]float64 {
							f := make([]*grid.Field2D, 4)
							d := make([][]float64, 4)
							for i := range f {
								f[i] = randomField(g, int64(231+i))
								d[i] = f[i].Data
							}
							pick(oracle, op.ChebySteps, op.oracleChebySteps)(pool, bs, in, alphas, betas, f[0], f[1], f[2], m, f[3])
							return d
						}
						if d := diffs(nil, nil, run(false), run(true)); d != "" {
							t.Errorf("%d steps all=%v %s minv=%v: %s", steps, all, pname, m != nil, d)
						}
					}
				}
			}
		}
	})
	t.Run("3D", func(t *testing.T) {
		g := grid.UnitGrid3D(10, 6, 7, 4) // width 10 ≡ 2 (mod 4)
		op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 240), 0.04, Conductivity, AllPhysical3D)
		if err != nil {
			t.Fatal(err)
		}
		in := g.Interior()
		for _, steps := range []int{1, 2, 4} {
			alphas, betas := chebyCoefs(steps)
			for _, all := range []bool{true, false} {
				bs := make([]grid.Bounds3D, steps)
				for j := range bs {
					e := steps - 1 - j
					if all {
						bs[j] = in.Expand(e, g)
					} else {
						bs[j] = in.ExpandSides(0, e, 0, e, 0, e, g)
					}
				}
				for pname, pool := range pools {
					for _, m := range []*grid.Field3D{nil, fullField3D(g, 249, true)} {
						run := func(oracle bool) [][]float64 {
							f := make([]*grid.Field3D, 4)
							d := make([][]float64, 4)
							for i := range f {
								f[i] = fullField3D(g, int64(241+i), false)
								d[i] = f[i].Data
							}
							pick(oracle, op.ChebySteps, op.oracleChebySteps)(pool, bs, in, alphas, betas, f[0], f[1], f[2], m, f[3])
							return d
						}
						if d := diffs(nil, nil, run(false), run(true)); d != "" {
							t.Errorf("%d steps all=%v %s minv=%v: %s", steps, all, pname, m != nil, d)
						}
					}
				}
			}
		}
	})
}

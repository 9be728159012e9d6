package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/halo"
	"tealeaf/internal/par"
)

// chebyStep is the per-step form ChebySteps replaced: one Chebyshev step
// over b in its own sweep through the pool's band split, reading
// sdOld and writing sdNew. It is the oracle a block of steps is held to.
func (op *Operator2D) chebyStep(pool *par.Pool, b, in grid.Bounds, alpha, beta float64, sdOld, rtemp, minv, sdNew, acc *grid.Field2D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	od, rd, nd, ad := sdOld.Data, rtemp.Data, sdNew.Data, acc.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pool.For(b.Y0, b.Y1, func(k0, k1 int) {
		a0, a1 := max(in.X0, b.X0)-b.X0, min(in.X1, b.X1)-b.X0
		for k := k0; k < k1; k++ {
			row := g.Index(b.X0, k)
			rowRuns(b.X1-b.X0, a0, a1, k >= in.Y0 && k < in.Y1, func(off, n int, accum bool) {
				o := row + off
				var ms, zs []float64
				if md != nil {
					ms = md[o : o+n]
				}
				if accum {
					zs = ad[o : o+n]
				}
				chebyRow5(kx[o:o+n+1], ky[o:o+n], ky[o+s:o+s+n],
					od[o-1:o+n+1], od[o-s:o-s+n], od[o+s:o+s+n],
					rd[o:o+n], ms, nd[o:o+n:o+n], zs, alpha, beta)
			})
		}
	})
}

// chebyStep is the 3D per-step oracle — see Operator2D.chebyStep.
func (op *Operator3D) chebyStep(pool *par.Pool, b, in grid.Bounds3D, alpha, beta float64, sdOld, rtemp, minv, sdNew, acc *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	sy, sz := op.strides()
	od, rd, nd, ad := sdOld.Data, rtemp.Data, sdNew.Data, acc.Data
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	pool.For(b.Z0, b.Z1, func(k0, k1 int) {
		a0, a1 := max(in.X0, b.X0)-b.X0, min(in.X1, b.X1)-b.X0
		for k := k0; k < k1; k++ {
			inZ := k >= in.Z0 && k < in.Z1
			for j := b.Y0; j < b.Y1; j++ {
				row := g.Index(b.X0, j, k)
				rowRuns(b.X1-b.X0, a0, a1, inZ && j >= in.Y0 && j < in.Y1, func(off, n int, accum bool) {
					o := row + off
					kx, ks, kn, kb, kf := op.kRows(o, n, sy, sz)
					pc, ps, pn, pb, pf := pRows(od, o, n, sy, sz)
					var ms, zs []float64
					if md != nil {
						ms = md[o : o+n]
					}
					if accum {
						zs = ad[o : o+n]
					}
					chebyRow7(kx, ks, kn, kb, kf, pc, ps, pn, pb, pf,
						rd[o:o+n], ms, nd[o:o+n:o+n], zs, alpha, beta)
				})
			}
		}
	})
}

// wavePools are the worker counts the wavefront is held to.
func wavePools() map[string]*par.Pool {
	pools := map[string]*par.Pool{}
	for _, w := range []int{1, 2, 3, 4, 7} {
		pools[fmt.Sprintf("w%d", w)] = par.NewPool(w).WithGrain(1)
	}
	return pools
}

// chebyCoefs are distinct per-step coefficients, so a step run with
// another step's α or β shows.
func chebyCoefs(steps int) (alphas, betas []float64) {
	for j := 0; j < steps; j++ {
		alphas = append(alphas, 0.83-0.05*float64(j))
		betas = append(betas, 0.29+0.03*float64(j))
	}
	return alphas, betas
}

// fillWhere sets every cell for which inside holds to a value in [−1,1)
// and every other cell to NaN.
func fillWhere(data []float64, seed int64, inside func(idx int) bool) {
	rng := rand.New(rand.NewSource(seed))
	for i := range data {
		data[i] = math.NaN()
		if inside(i) {
			data[i] = rng.Float64()*2 - 1
		}
	}
}

// sameBits reports the first cell at which got and want differ bitwise
// (NaN payloads included: both sides run the same leaf).
func sameBits(got, want []float64) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestChebyStepsMatchStepwiseBitwise: one ChebySteps call over a
// matrix-powers block reproduces its steps run one sweep each — sd, alt,
// rtemp and the accumulator, every cell of the padded grid, bit for bit —
// for every worker count, minv nil or not, 1–4 steps, the
// block's bounds extended 0–3 cells on each exchanged side, and meshes
// from too thin for two bands to many bands. Every cell no step may read
// is NaN: sd beyond bs[0] plus one, alt beyond bs[1] plus one (the stale
// ring a later step reads on a side that was not extended), rtemp and
// minv beyond bs[0], the accumulator beyond the interior. A wavefront
// that runs a row early, late or twice reads a value the oracle did not.
func TestChebyStepsMatchStepwiseBitwise(t *testing.T) {
	pools := wavePools()
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	t.Run("2D", func(t *testing.T) { chebySteps2D(t, pools) })
	t.Run("3D", func(t *testing.T) { chebySteps3D(t, pools) })
}

func chebySteps2D(t *testing.T, pools map[string]*par.Pool) {
	sides := []halo.Sides{
		{},
		{Left: true, Up: true},
		{Right: true, Down: true},
		{Left: true, Right: true, Down: true, Up: true},
	}
	for _, mesh := range [][2]int{{9, 2}, {8, 13}, {7, 40}} {
		g := grid.UnitGrid2D(mesh[0], mesh[1], 4)
		in := g.Interior()
		op, err := BuildOperator2D(par.Serial, randomDensity(g, 5), 0.04, Conductivity, PhysicalSides{})
		if err != nil {
			t.Fatal(err)
		}
		for name, pool := range pools {
			for steps := 1; steps <= 4; steps++ {
				alphas, betas := chebyCoefs(steps)
				for depth := steps; depth <= 4; depth++ {
					for _, adj := range sides {
						sched, err := halo.NewSchedule(g, depth, adj)
						if err != nil {
							t.Fatal(err)
						}
						sched.Refill()
						bs := make([]grid.Bounds, steps)
						for j := range bs {
							bs[j], _ = sched.Next()
						}
						for _, pre := range []bool{false, true} {
							label := fmt.Sprintf("%dx%d %s steps=%d depth=%d %+v minv=%v", mesh[0], mesh[1], name, steps, depth, adj, pre)
							chebySteps2DCase(t, label, op, pool, bs, in, alphas, betas, pre)
						}
					}
				}
			}
		}
	}
}

func chebySteps2DCase(t *testing.T, label string, op *Operator2D, pool *par.Pool, bs []grid.Bounds, in grid.Bounds, alphas, betas []float64, pre bool) {
	g := op.Grid
	within := func(b grid.Bounds) func(int) bool {
		return func(i int) bool { return b.Contains(g.Coords(i)) }
	}
	f := func() *grid.Field2D { return grid.NewField2D(g) }
	sd, alt, rtemp, acc := f(), f(), f(), f()
	fillWhere(sd.Data, 1, within(bs[0].Expand(1, g)))
	altRead := grid.Bounds{}
	if len(bs) > 1 {
		altRead = bs[1].Expand(1, g)
	}
	fillWhere(alt.Data, 2, within(altRead))
	fillWhere(rtemp.Data, 3, within(bs[0]))
	fillWhere(acc.Data, 4, within(in))
	var minv *grid.Field2D
	if pre {
		minv = f()
		fillWhere(minv.Data, 5, within(bs[0]))
	}

	dirs := [2]*grid.Field2D{sd.Clone(), alt.Clone()}
	rO, accO := rtemp.Clone(), acc.Clone()
	for j, b := range bs {
		op.chebyStep(pool, b, in, alphas[j], betas[j], dirs[j&1], rO, minv, dirs[(j+1)&1], accO)
	}
	if i := firstNaN(accO.Data, within(in)); i >= 0 {
		t.Fatalf("%s: the oracle read a poisoned cell: acc is NaN at %v", label, fmt.Sprint(g.Coords(i)))
	}

	op.ChebySteps(pool, bs, in, alphas, betas, sd, alt, rtemp, minv, acc)
	for _, c := range []struct {
		name      string
		got, want *grid.Field2D
	}{{"sd", sd, dirs[0]}, {"alt", alt, dirs[1]}, {"rtemp", rtemp, rO}, {"acc", acc, accO}} {
		if i := sameBits(c.got.Data, c.want.Data); i >= 0 {
			j, k := g.Coords(i)
			t.Errorf("%s: %s differs at (%d,%d): %v, stepwise %v", label, c.name, j, k, c.got.Data[i], c.want.Data[i])
		}
	}
}

func chebySteps3D(t *testing.T, pools map[string]*par.Pool) {
	sides := []halo.Sides3D{
		{},
		{Left: true, Up: true, Front: true},
		{Right: true, Down: true, Back: true},
		{Left: true, Right: true, Down: true, Up: true, Back: true, Front: true},
	}
	for _, mesh := range [][3]int{{5, 4, 2}, {4, 3, 19}} {
		g := grid.UnitGrid3D(mesh[0], mesh[1], mesh[2], 4)
		in := g.Interior()
		op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 6), 0.04, Conductivity, PhysicalSides3D{})
		if err != nil {
			t.Fatal(err)
		}
		for name, pool := range pools {
			for steps := 1; steps <= 4; steps++ {
				alphas, betas := chebyCoefs(steps)
				for depth := steps; depth <= 4; depth++ {
					for _, adj := range sides {
						sched, err := halo.NewSchedule3D(g, depth, adj)
						if err != nil {
							t.Fatal(err)
						}
						sched.Refill()
						bs := make([]grid.Bounds3D, steps)
						for j := range bs {
							bs[j], _ = sched.Next()
						}
						for _, pre := range []bool{false, true} {
							label := fmt.Sprintf("%dx%dx%d %s steps=%d depth=%d %+v minv=%v", mesh[0], mesh[1], mesh[2], name, steps, depth, adj, pre)
							chebySteps3DCase(t, label, op, pool, bs, in, alphas, betas, pre)
						}
					}
				}
			}
		}
	}
}

func chebySteps3DCase(t *testing.T, label string, op *Operator3D, pool *par.Pool, bs []grid.Bounds3D, in grid.Bounds3D, alphas, betas []float64, pre bool) {
	g := op.Grid
	sx, sy := g.NX+2*g.Halo, g.NY+2*g.Halo
	coords := func(idx int) (i, j, k int) {
		return idx%sx - g.Halo, idx/sx%sy - g.Halo, idx/(sx*sy) - g.Halo
	}
	within := func(b grid.Bounds3D) func(int) bool {
		return func(idx int) bool { return b.Contains(coords(idx)) }
	}
	f := func() *grid.Field3D { return grid.NewField3D(g) }
	sd, alt, rtemp, acc := f(), f(), f(), f()
	fillWhere(sd.Data, 1, within(bs[0].Expand(1, g)))
	altRead := grid.Bounds3D{}
	if len(bs) > 1 {
		altRead = bs[1].Expand(1, g)
	}
	fillWhere(alt.Data, 2, within(altRead))
	fillWhere(rtemp.Data, 3, within(bs[0]))
	fillWhere(acc.Data, 4, within(in))
	var minv *grid.Field3D
	if pre {
		minv = f()
		fillWhere(minv.Data, 5, within(bs[0]))
	}

	dirs := [2]*grid.Field3D{sd.Clone(), alt.Clone()}
	rO, accO := rtemp.Clone(), acc.Clone()
	for j, b := range bs {
		op.chebyStep(pool, b, in, alphas[j], betas[j], dirs[j&1], rO, minv, dirs[(j+1)&1], accO)
	}
	if i := firstNaN(accO.Data, within(in)); i >= 0 {
		t.Fatalf("%s: the oracle read a poisoned cell: acc is NaN at flat index %d", label, i)
	}

	op.ChebySteps(pool, bs, in, alphas, betas, sd, alt, rtemp, minv, acc)
	for _, c := range []struct {
		name      string
		got, want *grid.Field3D
	}{{"sd", sd, dirs[0]}, {"alt", alt, dirs[1]}, {"rtemp", rtemp, rO}, {"acc", acc, accO}} {
		if idx := sameBits(c.got.Data, c.want.Data); idx >= 0 {
			i, j, k := coords(idx)
			t.Errorf("%s: %s differs at (%d,%d,%d): %v, stepwise %v", label, c.name, i, j, k, c.got.Data[idx], c.want.Data[idx])
		}
	}
}

// firstNaN returns the first cell inside which holds NaN, or −1.
func firstNaN(data []float64, inside func(int) bool) int {
	for i, v := range data {
		if inside(i) && math.IsNaN(v) {
			return i
		}
	}
	return -1
}

package solver

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"tealeaf/internal/cheby"
	"tealeaf/internal/comm"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stats"
	"tealeaf/internal/stencil"
)

// Solver-level contract of the one-sweep Chebyshev step (PR 18): PPCG
// must reproduce the two-sweep engine's iterates BIT FOR BIT — gathered
// solution, iteration counts and the residual history — for every halo
// depth (odd depths put the ping-pong direction buffers on either parity
// at exchange time), rank layout and worker count. The stand-alone
// Chebyshev solver is pinned beside it: its sweeps did not change, only
// its checks did. stepPins was generated by running this file at the parent
// commit (ea65b55, matvec + FusedPPCGInner):
//
//	CHEBYSTEP_GEN=1 go test ./internal/solver -run TestChebyStepSolvesMatchParentBitwise

type stepKey struct {
	kind    string // ppcg, ppcg-defl, chebyshev
	dims    int
	jacobi  bool
	depth   int
	ranks   int
	workers int
}

type stepPin struct {
	iters, inner  int
	solution, his uint64 // FNV-1a over the float bits
}

func (k stepKey) String() string {
	return fmt.Sprintf("%s/%dD/jacobi=%v/depth=%d/ranks=%d/workers=%d", k.kind, k.dims, k.jacobi, k.depth, k.ranks, k.workers)
}

func hashFloats(vs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// stepLayouts maps a rank count to its process grid.
var stepLayouts = map[int][3]int{1: {1, 1, 1}, 2: {2, 1, 1}, 4: {2, 2, 1}}

const (
	stepNX, stepNY, stepNZ = 24, 20, 8
	stepNX3, stepNY3       = 12, 10
)

// stepFields are buildProblem's fields as global closures, so every rank
// paints exactly the cells it owns: random positive density and a hot
// block in the right-hand side.
func stepFields(nx, ny, nz int, seed int64) (den, rhs func(i, j, k int) float64) {
	rng := rand.New(rand.NewSource(seed))
	d := make([]float64, nx*ny*nz)
	for i := range d {
		d[i] = 0.5 + rng.Float64()*4
	}
	den = func(i, j, k int) float64 { return d[(k*ny+j)*nx+i] }
	rhs = func(i, j, k int) float64 {
		if i > nx/4 && i < nx/2 && j > ny/4 && j < ny/2 {
			return 10
		}
		return 0.1
	}
	return den, rhs
}

// stepOptions are k's solve options. A key's depth is the grid's halo
// and, for PPCG, its matrix-powers depth; the stand-alone Chebyshev
// solver exchanges at depth 1 on any grid (see stepKeys).
func stepOptions(k stepKey, c comm.Communicator, pool *par.Pool) Options {
	depth := k.depth
	if k.kind == "chebyshev" {
		depth = 1
	}
	return Options{
		Tol: 1e-10, Comm: c, Pool: pool,
		EigenCGIters: 10, InnerSteps: 7, HaloDepth: depth, CheckEvery: 5,
	}
}

func stepSolve2D(t *testing.T, k stepKey) stepPin {
	t.Helper()
	halo := max(k.depth, 2)
	l := stepLayouts[k.ranks]
	part := grid.MustPartition(stepNX, stepNY, l[0], l[1])
	gg := grid.UnitGrid2D(stepNX, stepNY, halo)
	gathered := grid.NewField2D(gg)
	denAt, rhsAt := stepFields(stepNX, stepNY, 1, 7)
	var pin stepPin
	err := comm.Run(part, func(c *comm.RankComm) error {
		pool := par.NewPool(k.workers).WithGrain(1)
		defer pool.Close()
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		den, rhs := grid.NewField2D(sub), grid.NewField2D(sub)
		for j := 0; j < sub.NY; j++ {
			for i := 0; i < sub.NX; i++ {
				den.Set(i, j, denAt(ext.X0+i, ext.Y0+j, 0))
				rhs.Set(i, j, rhsAt(ext.X0+i, ext.Y0+j, 0))
			}
		}
		if err := c.Exchange(sub.Halo, den); err != nil {
			return err
		}
		ph := c.Physical()
		op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides{Left: ph.Left, Right: ph.Right, Down: ph.Down, Up: ph.Up})
		if err != nil {
			return err
		}
		o := stepOptions(k, c, pool)
		if k.jacobi {
			o.Precond = precond.NewJacobi(par.Serial, op)
		}
		kind := Kind(k.kind)
		if k.kind == "ppcg-defl" {
			kind = KindPPCG
			o.Deflation, err = deflate.New(pool, c, op,
				deflate.Geometry{GlobalNX: stepNX, GlobalNY: stepNY, OffsetX: ext.X0, OffsetY: ext.Y0},
				deflate.Config{BX: 4, BY: 4})
			if err != nil {
				return err
			}
		}
		p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := Solve(kind, p, o)
		if err != nil {
			return err
		}
		if !res.Converged {
			t.Errorf("%v rank %d: not converged: %+v", k, c.Rank(), res)
		}
		var dst *grid.Field2D
		if c.Rank() == 0 {
			dst = gathered
			pin.iters, pin.inner, pin.his = res.Iterations, res.TotalInner, hashFloats(res.History)
		}
		return c.GatherInterior(p.U, dst)
	})
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	pin.solution = hashFloats(gathered.Data)
	return pin
}

func stepSolve3D(t *testing.T, k stepKey) stepPin {
	t.Helper()
	halo := max(k.depth, 2)
	l := stepLayouts[k.ranks]
	part := grid.MustPartition3D(stepNX3, stepNY3, stepNZ, l[0], l[1], l[2])
	gg := grid.UnitGrid3D(stepNX3, stepNY3, stepNZ, halo)
	gathered := grid.NewField3D(gg)
	denAt, rhsAt := stepFields(stepNX3, stepNY3, stepNZ, 11)
	var pin stepPin
	err := comm.Run(part, func(c *comm.RankComm) error {
		pool := par.NewPool(k.workers).WithGrain(1)
		defer pool.Close()
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1, ext.Z0, ext.Z1)
		if err != nil {
			return err
		}
		den, rhs := grid.NewField3D(sub), grid.NewField3D(sub)
		for kk := 0; kk < sub.NZ; kk++ {
			for j := 0; j < sub.NY; j++ {
				for i := 0; i < sub.NX; i++ {
					den.Set(i, j, kk, denAt(ext.X0+i, ext.Y0+j, ext.Z0+kk))
					rhs.Set(i, j, kk, rhsAt(ext.X0+i, ext.Y0+j, ext.Z0+kk))
				}
			}
		}
		if err := c.Exchange3D(sub.Halo, den); err != nil {
			return err
		}
		ph := c.Physical3D()
		op, err := stencil.BuildOperator3D(par.Serial, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides3D{Left: ph.Left, Right: ph.Right, Down: ph.Down, Up: ph.Up, Back: ph.Back, Front: ph.Front})
		if err != nil {
			return err
		}
		o := stepOptions(k, c, pool)
		if k.jacobi {
			o.Precond3D = precond.NewJacobi3D(par.Serial, op)
		}
		p := Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := Solve3D(Kind(k.kind), p, o)
		if err != nil {
			return err
		}
		if !res.Converged {
			t.Errorf("%v rank %d: not converged: %+v", k, c.Rank(), res)
		}
		var dst *grid.Field3D
		if c.Rank() == 0 {
			dst = gathered
			pin.iters, pin.inner, pin.his = res.Iterations, res.TotalInner, hashFloats(res.History)
		}
		return c.GatherInterior3D(p.U, dst)
	})
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	pin.solution = hashFloats(gathered.Data)
	return pin
}

// stepKeys is the pinned matrix: PPCG on every depth, plain and Jacobi-
// folded, 2D and 3D; deflated 2D PPCG; and the Chebyshev solver on halo-1
// and halo-3 grids. Its depth-3 keys were pinned while the halo depth
// still ran its bootstrap CG as a depth-3 exchange cycle; the depth-1
// bootstrap that replaced the cycle must give the same bits.
func stepKeys() []stepKey {
	var keys []stepKey
	for _, ranks := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2} {
			for _, jacobi := range []bool{false, true} {
				for _, dims := range []int{2, 3} {
					for depth := 1; depth <= 4; depth++ {
						keys = append(keys, stepKey{"ppcg", dims, jacobi, depth, ranks, workers})
					}
					for _, depth := range []int{1, 3} {
						keys = append(keys, stepKey{"chebyshev", dims, jacobi, depth, ranks, workers})
					}
				}
				for depth := 1; depth <= 4; depth++ {
					keys = append(keys, stepKey{"ppcg-defl", 2, jacobi, depth, ranks, workers})
				}
			}
		}
	}
	return keys
}

func TestChebyStepSolvesMatchParentBitwise(t *testing.T) {
	solve := func(t *testing.T, k stepKey) stepPin {
		if k.dims == 2 {
			return stepSolve2D(t, k)
		}
		return stepSolve3D(t, k)
	}
	if os.Getenv("CHEBYSTEP_GEN") != "" {
		var lines []string
		for _, k := range stepKeys() {
			got := solve(t, k)
			lines = append(lines, fmt.Sprintf("\t{%q, %d, %v, %d, %d, %d}: {%d, %d, %#x, %#x},",
				k.kind, k.dims, k.jacobi, k.depth, k.ranks, k.workers, got.iters, got.inner, got.solution, got.his))
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Println(l)
		}
		return
	}
	for _, k := range stepKeys() {
		t.Run(k.String(), func(t *testing.T) {
			want, ok := stepPins[k]
			if !ok {
				t.Fatalf("no pin (regenerate at the parent commit)")
			}
			if got := solve(t, k); got != want {
				t.Errorf("{iters inner solution history} = {%d %d %#x %#x}, parent {%d %d %#x %#x}",
					got.iters, got.inner, got.solution, got.his, want.iters, want.inner, want.solution, want.his)
			}
		})
	}
}

// TestPPCGTraceSweepCounts pins what one fused PPCG outer iteration costs
// in grid passes, as slopes over the outer iteration count so start-up
// cancels: ONE merged sweep per inner step (traced as a matvec over that
// step's matrix-powers bounds) plus the engine's matvec w = A·z, whose
// δ = z·w rides it; one vector pass (the CG engine's step, which carries
// the inner solve's set-up); one dot pass (γ = r·z and ‖r‖²); no
// preconditioner pass; ONE reduction round; and 1 + ⌈InnerSteps/depth⌉
// exchanges. Deflated, the restriction rides the matvec and the scalar
// round, and the correction the step: the same profile, still one round.
func TestPPCGTraceSweepCounts(t *testing.T) {
	type profile struct{ matvecs, vectorPasses, dots, preconds, reductions, exchanges int }
	const inner = 7
	run := func(depth, iters int, jacobi, deflated bool) (stats.Trace, int) {
		t.Helper()
		p := buildProblem(t, 24, 20, 4, 3)
		c := comm.NewSerial()
		o := Options{Tol: 1e-30, MaxIters: iters, Comm: c, EigenCGIters: 4, InnerSteps: inner, HaloDepth: depth}
		if jacobi {
			o.Precond = precond.NewJacobi(par.Serial, p.Op)
		}
		if deflated {
			defl, err := deflate.New(par.Serial, c, p.Op, deflate.Geometry{}, deflate.Config{BX: 4, BY: 4})
			if err != nil {
				t.Fatal(err)
			}
			o.Deflation = defl
		}
		res, err := SolvePPCG(p, o)
		if err != nil {
			t.Fatal(err)
		}
		return *c.Trace(), res.Iterations
	}
	for _, deflated := range []bool{false, true} {
		for _, jacobi := range []bool{false, true} {
			for depth := 1; depth <= 4; depth++ {
				t1, i1 := run(depth, 10, jacobi, deflated)
				t2, i2 := run(depth, 16, jacobi, deflated)
				di := i2 - i1
				if di <= 0 {
					t.Fatalf("depth %d: iteration counts did not differ (%d vs %d)", depth, i1, i2)
				}
				got := profile{
					(t2.Matvecs - t1.Matvecs) / di, (t2.VectorPasses - t1.VectorPasses) / di,
					(t2.Dots - t1.Dots) / di, (t2.PrecondApplies - t1.PrecondApplies) / di,
					(t2.Reductions - t1.Reductions) / di, (t2.HaloExchanges - t1.HaloExchanges) / di,
				}
				want := profile{1 + inner, 1, 1, 0, 1, 1 + (inner+depth-1)/depth}
				if got != want {
					t.Errorf("deflated=%v jacobi=%v depth %d: per-outer-iteration {matvecs vectorPasses dots preconds reductions exchanges} = %v, want %v",
						deflated, jacobi, depth, got, want)
				}
			}
		}
	}
}

// TestChebyStepsAllocatesNothing: a block of Chebyshev steps allocates
// exactly what a bare par.Pool.Wavefront dispatch of a capturing callback
// does, and a warmed-up fused inner solve (innerCore.apply, with the CG
// engine's step riding it) exactly what its parts do when called one by
// one — the step and set-up sweep, and per block
// one exchange and one ChebySteps call: nothing per step, per row, per
// band or per block of its own. The floor is not zero while par's
// dispatch itself allocates (see kernels.dispatchAllocs).
func TestChebyStepsAllocatesNothing(t *testing.T) {
	base := par.NewPool(2).WithGrain(1)
	defer base.Close()
	one := par.NewPool(1)
	pools := map[string]*par.Pool{"w1": one, "w2": base}
	for name, pool := range pools {
		o := Options{Comm: comm.NewSerial(), Pool: pool, InnerSteps: 7, HaloDepth: 3}.withDefaults()
		p := buildProblem(t, 24, 20, 3, 3)
		e2 := newEngine[*grid.Field2D, grid.Bounds](newSys2D(p, o, new(Workspace)), o, p.U, p.RHS)
		innerAllocs(t, name+" 2D", e2, p.RHS.Clone(), p.Op.Grid.NY)
		p3 := buildProblem3DHalo(t, 8, 4, 3)
		o.Precond3D = precond.NewJacobi3D(par.Serial, p3.Op)
		e3 := newEngine[*grid.Field3D, grid.Bounds3D](newSys3D(p3, o, new(Workspace)), o, p3.U, p3.RHS)
		innerAllocs(t, name+" 3D", e3, p3.RHS.Clone(), p3.Op.Grid.NZ)
	}
}

// innerAllocs pins e's ChebySteps against a bare wavefront over rows
// outer-axis rows, and a warmed-up innerCore.apply against its parts.
func innerAllocs[F comparable, B any](t *testing.T, label string, e *engine[F, B], r F, rows int) {
	t.Helper()
	sys, o := e.sys, e.o
	sched, err := cheby.NewSchedule(0.2, 1.9, o.InnerSteps)
	if err != nil {
		t.Fatal(err)
	}
	bs := sys.Powers(o.HaloDepth)
	w, z := sys.Vec(vecW), sys.Vec(vecZ)
	st := &cgStep[F]{beta: 0.5, alpha: 1e-3, p: sys.Vec(vecP), s: sys.Vec(vecS)}
	inner := newInnerCore(e, sched, bs)
	apply := func() {
		if err := inner.apply(st, r, z, w); err != nil {
			t.Fatal(err)
		}
	}
	apply()
	got := testing.AllocsPerRun(20, apply)

	want := testing.AllocsPerRun(20, func() {
		sys.PPCGStep(e.in, st.beta, st.alpha, st.p, st.s, e.u, z, w, r, 1/sched.Theta, inner.minv, inner.sd, deflRows{})
	})
	x := []float64{1}
	for step := 0; step < o.InnerSteps; step += o.HaloDepth {
		n := min(o.HaloDepth, o.InnerSteps-step)
		steps := testing.AllocsPerRun(20, func() {
			sys.ChebySteps(bs[:n], e.in, sched.Alpha[:n], sched.Beta[:n], inner.sd, inner.alt, w, inner.minv, z)
		})
		bare := testing.AllocsPerRun(20, func() { o.Pool.Wavefront(n, 0, rows, func(int, int) { _ = x[0] }) })
		if steps != bare {
			t.Errorf("%s: ChebySteps over %d steps allocates %v per call, a bare Wavefront %v", label, n, steps, bare)
		}
		want += steps + testing.AllocsPerRun(20, func() {
			if err := e.exchange(o.HaloDepth, inner.sd, w); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got != want {
		t.Errorf("%s: a warmed-up inner solve allocates %v per call, its step sweep, exchanges and blocks %v", label, got, want)
	}
}

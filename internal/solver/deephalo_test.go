package solver

import (
	"fmt"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stats"
	"tealeaf/internal/stencil"
)

// Deep-halo CG only moves work into the extension rings: the
// extended-bounds sweeps and ring updates are pointwise, so on one rank
// depth d repeats depth 1 bit for bit at every worker count. The worker
// count itself changes only the order each dot's band partials are
// summed in.

// deepVariant names one engine combination under test: jac_diag unless
// block selects jac_block, on a grid of halo max(depth, 2) unless halo is
// set, solved by the engine unless oracle selects the textbook PCG loop.
type deepVariant struct {
	name     string
	deflated bool
	block    bool
	halo     int
	oracle   bool
}

// gridHalo is the halo depth v's grid is allocated with for a solve at
// the given matrix-powers depth.
func (v deepVariant) gridHalo(depth int) int {
	if v.halo > 0 {
		return v.halo
	}
	return max(depth, 2)
}

var deepVariants = []deepVariant{
	{name: "fused"},
	{name: "deflated-fused", deflated: true},
}

// deepPool builds a rank's worker pool at grain 1, so the test meshes,
// below the default grain, still split into one band per worker.
func deepPool(workers int) *par.Pool {
	return par.NewPool(workers).WithGrain(1)
}

func deepOpts(pool *par.Pool, c comm.Communicator, depth int) Options {
	return Options{Tol: 1e-10, Comm: c, Pool: pool, HaloDepth: depth}
}

// deepRun2D solves the deterministic denAt2D/rhsAt2D problem with the
// given engine variant and returns the iteration count, the gathered
// solution and rank 0's solver-only trace.
func deepRun2D(t *testing.T, v deepVariant, ranks, workers, depth int) (int, *grid.Field2D, stats.Trace) {
	t.Helper()
	const n = 24
	halo := v.gridHalo(depth)
	layouts := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}}
	pxpy, ok := layouts[ranks]
	if !ok {
		t.Fatalf("no 2D layout for %d ranks", ranks)
	}
	part := grid.MustPartition(n, n, pxpy[0], pxpy[1])
	gg := grid.UnitGrid2D(n, n, halo)
	gathered := grid.NewField2D(gg)
	var iters int
	var tr stats.Trace
	err := comm.Run(part, func(c *comm.RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		den, rhs := grid.NewField2D(sub), grid.NewField2D(sub)
		for k := 0; k < sub.NY; k++ {
			for j := 0; j < sub.NX; j++ {
				den.Set(j, k, denAt2D(ext.X0+j, ext.Y0+k))
				rhs.Set(j, k, rhsAt2D(ext.X0+j, ext.Y0+k))
			}
		}
		if err := c.Exchange(sub.Halo, den); err != nil {
			return err
		}
		pool := deepPool(workers)
		phys := c.Physical()
		op, err := stencil.BuildOperator2D(pool, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
		if err != nil {
			return err
		}
		opts := deepOpts(pool, c, depth)
		opts.Precond = precond.NewJacobi(pool, op)
		if v.block {
			opts.Precond = precond.NewBlockJacobi(pool, op, 0)
		}
		if v.deflated {
			defl, err := deflate.New(par.Serial, c, op,
				deflate.Geometry{GlobalNX: n, GlobalNY: n, OffsetX: ext.X0, OffsetY: ext.Y0},
				deflate.Config{BX: 4, BY: 4, Levels: 1})
			if err != nil {
				return err
			}
			opts.Deflation = defl
		}
		p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		c.Trace().Reset() // setup exchanges are not part of the solve
		solve := SolveCG
		if v.oracle {
			solve = solveCGClassic
		}
		res, err := solve(p, opts)
		if err != nil {
			return err
		}
		if !res.Converged {
			t.Errorf("2D %s ranks=%d workers=%d: not converged: %+v", v.name, ranks, workers, res)
		}
		if c.Rank() == 0 {
			iters = res.Iterations
			tr = *c.Trace()
		}
		var dst *grid.Field2D
		if c.Rank() == 0 {
			dst = gathered
		}
		return c.GatherInterior(p.U, dst)
	})
	if err != nil {
		t.Fatalf("2D %s ranks=%d workers=%d: %v", v.name, ranks, workers, err)
	}
	return iters, gathered, tr
}

// deepRun3D is the 3D twin on the denAt3D/rhsAt3D problem.
func deepRun3D(t *testing.T, v deepVariant, ranks, workers, depth int) (int, *grid.Field3D, stats.Trace) {
	t.Helper()
	const n = 12
	halo := v.gridHalo(depth)
	layouts := map[int][3]int{1: {1, 1, 1}, 2: {1, 1, 2}, 4: {1, 2, 2}}
	pl, ok := layouts[ranks]
	if !ok {
		t.Fatalf("no 3D layout for %d ranks", ranks)
	}
	part := grid.MustPartition3D(n, n, n, pl[0], pl[1], pl[2])
	gg := grid.UnitGrid3D(n, n, n, halo)
	gathered := grid.NewField3D(gg)
	var iters int
	var tr stats.Trace
	err := comm.Run3D(part, func(c *comm.RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1, ext.Z0, ext.Z1)
		if err != nil {
			return err
		}
		den, rhs := grid.NewField3D(sub), grid.NewField3D(sub)
		for k := 0; k < sub.NZ; k++ {
			for j := 0; j < sub.NY; j++ {
				for i := 0; i < sub.NX; i++ {
					den.Set(i, j, k, denAt3D(ext.X0+i, ext.Y0+j, ext.Z0+k))
					rhs.Set(i, j, k, rhsAt3D(ext.X0+i, ext.Y0+j, ext.Z0+k))
				}
			}
		}
		if err := c.Exchange3D(sub.Halo, den); err != nil {
			return err
		}
		pool := deepPool(workers)
		phys := c.Physical3D()
		op, err := stencil.BuildOperator3D(pool, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
				Up: phys.Up, Back: phys.Back, Front: phys.Front})
		if err != nil {
			return err
		}
		opts := deepOpts(pool, c, depth)
		opts.Precond3D = precond.NewJacobi3D(pool, op)
		if v.block {
			opts.Precond3D = precond.NewBlockJacobi3D(pool, op, 0)
		}
		if v.deflated {
			defl, err := deflate.New3D(par.Serial, c, op,
				deflate.Geometry3D{GlobalNX: n, GlobalNY: n, GlobalNZ: n,
					OffsetX: ext.X0, OffsetY: ext.Y0, OffsetZ: ext.Z0},
				deflate.Config{BX: 3, BY: 3, BZ: 3, Levels: 1})
			if err != nil {
				return err
			}
			opts.Deflation3D = defl
		}
		p := Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
		c.Trace().Reset()
		solve := SolveCG3D
		if v.oracle {
			solve = solveCGClassic3D
		}
		res, err := solve(p, opts)
		if err != nil {
			return err
		}
		if !res.Converged {
			t.Errorf("3D %s ranks=%d workers=%d: not converged: %+v", v.name, ranks, workers, res)
		}
		if c.Rank() == 0 {
			iters = res.Iterations
			tr = *c.Trace()
		}
		var dst *grid.Field3D
		if c.Rank() == 0 {
			dst = gathered
		}
		return c.GatherInterior3D(p.U, dst)
	})
	if err != nil {
		t.Fatalf("3D %s ranks=%d workers=%d: %v", v.name, ranks, workers, err)
	}
	return iters, gathered, tr
}

// TestDeepHaloWorkerCounts: the deep-halo cycle (depth 3 in 2D, 2 in
// 3D) of every engine variant. On one rank it must repeat the depth-1
// iteration count and solution bit for bit at every worker count. On two
// ranks 2, 4 and 7 workers must match 1 worker within the distributed
// equivalence tests' bounds: 1e-10 on the solution, ±2 iterations.
func TestDeepHaloWorkerCounts(t *testing.T) {
	for _, v := range deepVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 7} {
				label := fmt.Sprintf("ranks=1/workers=%d", workers)
				oneIters, oneU, _ := deepRun2D(t, v, 1, workers, 1)
				iters, u, _ := deepRun2D(t, v, 1, workers, 3)
				if iters != oneIters || u.MaxDiff(oneU) != 0 {
					t.Errorf("2D %s: depth 3 took %d iterations, off by %v from depth 1's %d (want bit-identical)",
						label, iters, u.MaxDiff(oneU), oneIters)
				}
				oneIters3, oneU3, _ := deepRun3D(t, v, 1, workers, 1)
				iters3, u3, _ := deepRun3D(t, v, 1, workers, 2)
				if iters3 != oneIters3 || u3.MaxDiff(oneU3) != 0 {
					t.Errorf("3D %s: depth 2 took %d iterations, off by %v from depth 1's %d (want bit-identical)",
						label, iters3, u3.MaxDiff(oneU3), oneIters3)
				}
			}
			refIters, refU, _ := deepRun2D(t, v, 2, 1, 3)
			refIters3, refU3, _ := deepRun3D(t, v, 2, 1, 2)
			for _, workers := range []int{2, 4, 7} {
				label := fmt.Sprintf("ranks=2/workers=%d", workers)
				iters, u, _ := deepRun2D(t, v, 2, workers, 3)
				if d := iters - refIters; d < -2 || d > 2 || u.MaxDiff(refU) > 1e-10 {
					t.Errorf("2D %s: %d iterations, solution off by %v; 1 worker took %d",
						label, iters, u.MaxDiff(refU), refIters)
				}
				iters3, u3, _ := deepRun3D(t, v, 2, workers, 2)
				if d := iters3 - refIters3; d < -2 || d > 2 || u3.MaxDiff(refU3) > 1e-10 {
					t.Errorf("3D %s: %d iterations, solution off by %v; 1 worker took %d",
						label, iters3, u3.MaxDiff(refU3), refIters3)
				}
			}
		})
	}
}

// checkDeepTrace pins one deep-halo solve's communication against its
// 1-worker reference on the same rank layout: the worker count may change
// neither the exchanges, the matvec and vector accounting nor the
// reduction rounds, and the depth-d exchanges stay bounded by one per d
// iterations plus the bootstrap and preconditioner setup rounds.
func checkDeepTrace(t *testing.T, label string, depth int, ref, tr stats.Trace, iters int) {
	t.Helper()
	if tr.HaloExchanges != ref.HaloExchanges || fmt.Sprint(tr.ExchangesByDepth) != fmt.Sprint(ref.ExchangesByDepth) {
		t.Errorf("%s: exchanges %v (total %d) differ from 1 worker's %v (total %d)",
			label, tr.ExchangesByDepth, tr.HaloExchanges, ref.ExchangesByDepth, ref.HaloExchanges)
	}
	if deepEx := tr.ExchangesByDepth[depth]; deepEx > (iters+depth-1)/depth+3 {
		t.Errorf("%s: %d depth-%d exchanges over %d iterations — more than one per %d iterations",
			label, deepEx, depth, iters, depth)
	}
	if tr.Matvecs != ref.Matvecs || tr.MatvecCells != ref.MatvecCells {
		t.Errorf("%s: matvec accounting (%d ops, %d cells) differs from 1 worker's (%d, %d)",
			label, tr.Matvecs, tr.MatvecCells, ref.Matvecs, ref.MatvecCells)
	}
	if tr.VectorPasses != ref.VectorPasses || tr.VectorCells != ref.VectorCells {
		t.Errorf("%s: vector accounting (%d passes, %d cells) differs from 1 worker's (%d, %d)",
			label, tr.VectorPasses, tr.VectorCells, ref.VectorPasses, ref.VectorCells)
	}
	if tr.Reductions != ref.Reductions || tr.ReducedValues != ref.ReducedValues {
		t.Errorf("%s: %d reductions (%d values) differ from 1 worker's %d (%d)",
			label, tr.Reductions, tr.ReducedValues, ref.Reductions, ref.ReducedValues)
	}
}

// TestDeepHaloCadence2D: every engine variant × ranks {1,2,4} × workers
// {1,2,4,7} at depth 3 — the solve converges, exchanges at depth 3 no
// more than once per three iterations, and its trace and iteration count
// do not depend on the worker count.
func TestDeepHaloCadence2D(t *testing.T) {
	const depth = 3
	for _, v := range deepVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, ranks := range []int{1, 2, 4} {
				refIters, _, refTr := deepRun2D(t, v, ranks, 1, depth)
				for _, workers := range []int{1, 2, 4, 7} {
					label := fmt.Sprintf("2D/ranks=%d/workers=%d", ranks, workers)
					iters, _, tr := deepRun2D(t, v, ranks, workers, depth)
					if iters != refIters {
						t.Errorf("%s: %d iterations, 1 worker took %d", label, iters, refIters)
					}
					checkDeepTrace(t, label, depth, refTr, tr, iters)
				}
			}
		})
	}
}

// TestDeepHaloCadence3D: the 3D twin at depth 2.
func TestDeepHaloCadence3D(t *testing.T) {
	const depth = 2
	for _, v := range deepVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, ranks := range []int{1, 2, 4} {
				refIters, _, refTr := deepRun3D(t, v, ranks, 1, depth)
				for _, workers := range []int{1, 2, 4, 7} {
					label := fmt.Sprintf("3D/ranks=%d/workers=%d", ranks, workers)
					iters, _, tr := deepRun3D(t, v, ranks, workers, depth)
					if iters != refIters {
						t.Errorf("%s: %d iterations, 1 worker took %d", label, iters, refIters)
					}
					checkDeepTrace(t, label, depth, refTr, tr, iters)
				}
			}
		})
	}
}

// TestDeepHaloMatchesDepthOne: the deep-halo cycle only moves work into
// the extension rings, so on one rank a depth-3 solve must repeat the
// depth-1 solve's iteration count and iterates bit for bit, jac_diag
// preconditioned on two workers.
func TestDeepHaloMatchesDepthOne(t *testing.T) {
	build := func(pool *par.Pool, depth int) (Result, *grid.Field2D) {
		const n = 24
		halo := depth
		if halo < 2 {
			halo = 2
		}
		g := grid.UnitGrid2D(n, n, halo)
		den, rhs := grid.NewField2D(g), grid.NewField2D(g)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				den.Set(j, k, denAt2D(j, k))
				rhs.Set(j, k, rhsAt2D(j, k))
			}
		}
		den.ReflectHalos(halo)
		op, err := stencil.BuildOperator2D(pool, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
		if err != nil {
			t.Fatal(err)
		}
		p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := SolveCG(p, Options{
			Tol: 1e-10, Pool: pool, HaloDepth: depth,
			Precond: precond.NewJacobi(pool, op),
		})
		if err != nil || !res.Converged {
			t.Fatalf("depth-%d solve: %v %+v", depth, err, res)
		}
		return res, p.U
	}
	pool := deepPool(2)
	defer pool.Close()
	one, u1 := build(pool, 1)
	deep, u3 := build(pool, 3)
	if deep.Iterations != one.Iterations || u3.MaxDiff(u1) != 0 {
		t.Errorf("depth 3 took %d iterations, off by %v from depth 1's %d (want bit-identical)",
			deep.Iterations, u3.MaxDiff(u1), one.Iterations)
	}
}

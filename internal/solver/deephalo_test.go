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

// Deep-halo CG on a tiled pool must be bitwise worker-invariant: the
// extended-bounds sweeps and ring updates are pointwise, and every dot
// folds its per-tile partials in fixed tile order, so neither the
// iterates nor the iteration count may depend on the worker count.

// deepVariant names one engine combination under test.
type deepVariant struct {
	name     string
	deflated bool
}

var deepVariants = []deepVariant{
	{"fused", false},
	{"deflated-fused", true},
}

// deepPool builds a rank's tiled worker pool with tile rows short enough
// that the test meshes span several tiles.
func deepPool(workers, dims int) *par.Pool {
	p := par.NewPool(workers).WithGrain(1)
	if dims == 3 {
		return p.WithTiles(0, 0, 4)
	}
	return p.WithTiles(0, 4, 0)
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
	halo := depth
	if halo < 2 {
		halo = 2
	}
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
		pool := deepPool(workers, 2)
		phys := c.Physical()
		op, err := stencil.BuildOperator2D(pool, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
		if err != nil {
			return err
		}
		opts := deepOpts(pool, c, depth)
		opts.Precond = precond.NewJacobi(pool, op)
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
		res, err := SolveCG(p, opts)
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
	halo := depth
	if halo < 2 {
		halo = 2
	}
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
		pool := deepPool(workers, 3)
		phys := c.Physical3D()
		op, err := stencil.BuildOperator3D(pool, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
				Up: phys.Up, Back: phys.Back, Front: phys.Front})
		if err != nil {
			return err
		}
		opts := deepOpts(pool, c, depth)
		opts.Precond3D = precond.NewJacobi3D(pool, op)
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
		res, err := SolveCG3D(p, opts)
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

// TestDeepHaloTiledWorkerInvariance: the deep-halo cycle (depth 3 in 2D,
// 2 in 3D) of every engine variant, on one and two ranks, must give the
// 1-worker iteration count and solution bit for bit at 2, 4 and 7
// workers.
func TestDeepHaloTiledWorkerInvariance(t *testing.T) {
	for _, v := range deepVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, ranks := range []int{1, 2} {
				refIters, refU, _ := deepRun2D(t, v, ranks, 1, 3)
				refIters3, refU3, _ := deepRun3D(t, v, ranks, 1, 2)
				for _, workers := range []int{2, 4, 7} {
					label := fmt.Sprintf("ranks=%d/workers=%d", ranks, workers)
					iters, u, _ := deepRun2D(t, v, ranks, workers, 3)
					if iters != refIters || u.MaxDiff(refU) != 0 {
						t.Errorf("2D %s: %d iterations, solution off by %v; 1 worker took %d (want bit-identical)",
							label, iters, u.MaxDiff(refU), refIters)
					}
					iters3, u3, _ := deepRun3D(t, v, ranks, workers, 2)
					if iters3 != refIters3 || u3.MaxDiff(refU3) != 0 {
						t.Errorf("3D %s: %d iterations, solution off by %v; 1 worker took %d (want bit-identical)",
							label, iters3, u3.MaxDiff(refU3), refIters3)
					}
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
// depth-1 solve's iteration count and iterates bit for bit, on an
// untiled pool and on a tiled one alike.
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
	for _, pc := range []struct {
		name string
		pool *par.Pool
	}{
		{"untiled", par.NewPool(2).WithGrain(1)},
		{"tiled", deepPool(2, 2)},
	} {
		one, u1 := build(pc.pool, 1)
		deep, u3 := build(pc.pool, 3)
		if deep.Iterations != one.Iterations || u3.MaxDiff(u1) != 0 {
			t.Errorf("%s pool: depth 3 took %d iterations, off by %v from depth 1's %d (want bit-identical)",
				pc.name, deep.Iterations, u3.MaxDiff(u1), one.Iterations)
		}
		pc.pool.Close()
	}
}

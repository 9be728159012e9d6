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

// Temporal-blocking acceptance tests: Options.Temporal must be
// bit-identical to the unchained deep-halo cycle — same iterates, same
// iteration count, same communication trace (the deflated pipelined
// combination excepted by exactly its documented one extra drained
// coarse round per solve) — across engines, dimensionalities, rank
// layouts and worker counts.

// temporalVariant names one engine combination under test.
type temporalVariant struct {
	name      string
	pipelined bool
	deflated  bool
}

var temporalVariants = []temporalVariant{
	{"fused", false, false},
	{"pipelined", true, false},
	{"deflated-fused", false, true},
	{"deflated-pipelined", true, true},
}

// temporalPool builds a rank's tiled worker pool with tile rows short
// enough that the chain sees several bands even on the test meshes.
func temporalPool(workers, dims int) *par.Pool {
	p := par.NewPool(workers).WithGrain(1)
	if dims == 3 {
		return p.WithTiles(0, 0, 4)
	}
	return p.WithTiles(0, 4, 0)
}

func temporalOpts(v temporalVariant, pool *par.Pool, c comm.Communicator, depth int, temporal bool) Options {
	return Options{
		Tol: 1e-10, Comm: c, Pool: pool,
		HaloDepth: depth, Pipelined: v.pipelined,
		Temporal: temporal, ChainBandCells: 5,
	}
}

// temporalRun2D solves the deterministic denAt2D/rhsAt2D problem with
// the given engine variant and returns the iteration count, the
// gathered solution and rank 0's solver-only trace.
func temporalRun2D(t *testing.T, v temporalVariant, ranks, workers, depth int, temporal bool) (int, *grid.Field2D, stats.Trace) {
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
		pool := temporalPool(workers, 2)
		phys := c.Physical()
		op, err := stencil.BuildOperator2D(pool, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
		if err != nil {
			return err
		}
		opts := temporalOpts(v, pool, c, depth, temporal)
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
			t.Errorf("2D %s ranks=%d workers=%d temporal=%v: not converged: %+v",
				v.name, ranks, workers, temporal, res)
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
		t.Fatalf("2D %s ranks=%d workers=%d temporal=%v: %v", v.name, ranks, workers, temporal, err)
	}
	return iters, gathered, tr
}

// temporalRun3D is the 3D twin on the denAt3D/rhsAt3D problem.
func temporalRun3D(t *testing.T, v temporalVariant, ranks, workers, depth int, temporal bool) (int, *grid.Field3D, stats.Trace) {
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
		pool := temporalPool(workers, 3)
		phys := c.Physical3D()
		op, err := stencil.BuildOperator3D(pool, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
				Up: phys.Up, Back: phys.Back, Front: phys.Front})
		if err != nil {
			return err
		}
		opts := temporalOpts(v, pool, c, depth, temporal)
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
			t.Errorf("3D %s ranks=%d workers=%d temporal=%v: not converged: %+v",
				v.name, ranks, workers, temporal, res)
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
		t.Fatalf("3D %s ranks=%d workers=%d temporal=%v: %v", v.name, ranks, workers, temporal, err)
	}
	return iters, gathered, tr
}

// checkTemporalTrace compares the chained run's trace against the
// unchained one: identical exchanges (one depth-d round per d
// iterations either way — the chain must never add exchanges), identical
// matvec/vector accounting, and identical reduction rounds except the
// deflated pipelined combination's documented one extra drained coarse
// round per solve.
func checkTemporalTrace(t *testing.T, label string, v temporalVariant, depth int, un, ch stats.Trace, iters, coarseDim int) {
	t.Helper()
	if ch.HaloExchanges != un.HaloExchanges || fmt.Sprint(ch.ExchangesByDepth) != fmt.Sprint(un.ExchangesByDepth) {
		t.Errorf("%s: chained exchanges %v (total %d) differ from unchained %v (total %d)",
			label, ch.ExchangesByDepth, ch.HaloExchanges, un.ExchangesByDepth, un.HaloExchanges)
	}
	// Deep-halo cadence: the solve's depth-d exchanges stay bounded by one
	// per d iterations plus the bootstrap/preconditioner setup rounds.
	if deepEx := ch.ExchangesByDepth[depth]; deepEx > (iters+depth-1)/depth+3 {
		t.Errorf("%s: %d depth-%d exchanges over %d iterations — more than one per %d iterations",
			label, deepEx, depth, iters, depth)
	}
	if ch.Matvecs != un.Matvecs || ch.MatvecCells != un.MatvecCells {
		t.Errorf("%s: chained matvec accounting (%d ops, %d cells) differs from unchained (%d, %d)",
			label, ch.Matvecs, ch.MatvecCells, un.Matvecs, un.MatvecCells)
	}
	if ch.VectorPasses != un.VectorPasses || ch.VectorCells != un.VectorCells {
		t.Errorf("%s: chained vector accounting (%d passes, %d cells) differs from unchained (%d, %d)",
			label, ch.VectorPasses, ch.VectorCells, un.VectorPasses, un.VectorCells)
	}
	wantRed, wantVals := un.Reductions, un.ReducedValues
	if v.pipelined && v.deflated {
		wantRed++
		wantVals += coarseDim
	}
	if ch.Reductions != wantRed || ch.ReducedValues != wantVals {
		t.Errorf("%s: chained reductions %d (%d values), want %d (%d): the temporal path must cost exactly %d extra round(s)",
			label, ch.Reductions, ch.ReducedValues, wantRed, wantVals, wantRed-un.Reductions)
	}
}

// TestTemporalBitIdentity2D: chained versus unchained deep-halo CG over
// every engine variant × ranks {1,2,4} × workers {1,2,4,7} at depth 3 —
// the solutions must match to the last bit and the iteration counts
// exactly, with the communication trace pinned by checkTemporalTrace.
func TestTemporalBitIdentity2D(t *testing.T) {
	const depth = 3
	for _, v := range temporalVariants {
		for _, ranks := range []int{1, 2, 4} {
			for _, workers := range []int{1, 2, 4, 7} {
				label := fmt.Sprintf("2D/%s/ranks=%d/workers=%d", v.name, ranks, workers)
				unIters, unU, unTr := temporalRun2D(t, v, ranks, workers, depth, false)
				chIters, chU, chTr := temporalRun2D(t, v, ranks, workers, depth, true)
				if chIters != unIters {
					t.Errorf("%s: chained took %d iterations, unchained %d", label, chIters, unIters)
				}
				if d := chU.MaxDiff(unU); d != 0 {
					t.Errorf("%s: chained solution differs from unchained by %v (want bit-identical)", label, d)
				}
				checkTemporalTrace(t, label, v, depth, unTr, chTr, unIters, 16)
			}
		}
	}
}

// TestTemporalBitIdentity3D: the 3D twin at depth 2.
func TestTemporalBitIdentity3D(t *testing.T) {
	const depth = 2
	for _, v := range temporalVariants {
		for _, ranks := range []int{1, 2, 4} {
			for _, workers := range []int{1, 2, 4, 7} {
				label := fmt.Sprintf("3D/%s/ranks=%d/workers=%d", v.name, ranks, workers)
				unIters, unU, unTr := temporalRun3D(t, v, ranks, workers, depth, false)
				chIters, chU, chTr := temporalRun3D(t, v, ranks, workers, depth, true)
				if chIters != unIters {
					t.Errorf("%s: chained took %d iterations, unchained %d", label, chIters, unIters)
				}
				if d := chU.MaxDiff(unU); d != 0 {
					t.Errorf("%s: chained solution differs from unchained by %v (want bit-identical)", label, d)
				}
				checkTemporalTrace(t, label, v, depth, unTr, chTr, unIters, 27)
			}
		}
	}
}

// Worker-count invariance of the chained fold: the temporal path at any
// worker count must match the temporal path at one worker bitwise (the
// ChainAccum fold is fixed-order by construction).
func TestTemporalWorkerInvariance(t *testing.T) {
	for _, v := range temporalVariants {
		_, refU, _ := temporalRun2D(t, v, 1, 1, 3, true)
		for _, workers := range []int{2, 4, 7} {
			_, u, _ := temporalRun2D(t, v, 1, workers, 3, true)
			if d := u.MaxDiff(refU); d != 0 {
				t.Errorf("2D %s: %d-worker chained solution differs from 1-worker by %v", v.name, workers, d)
			}
		}
	}
}

// Temporal on an untiled pool must fall back to the unchained cycle
// (silently at the library layer — the deck layer rejects it instead),
// and a depth-1 solve must ignore the flag entirely.
func TestTemporalFallbacks(t *testing.T) {
	build := func(pool *par.Pool, temporal bool, depth int) (Result, *grid.Field2D) {
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
			Precond:  precond.NewJacobi(pool, op),
			Temporal: temporal, ChainBandCells: 5,
		})
		if err != nil || !res.Converged {
			t.Fatalf("fallback solve (temporal=%v depth=%d): %v %+v", temporal, depth, err, res)
		}
		return res, p.U
	}
	untiled := par.NewPool(2).WithGrain(1)
	un, uU := build(untiled, false, 3)
	ch, cU := build(untiled, true, 3)
	if ch.Iterations != un.Iterations || cU.MaxDiff(uU) != 0 {
		t.Errorf("temporal on an untiled pool must be the unchained cycle exactly")
	}
	tiled := temporalPool(2, 2)
	un, uU = build(tiled, false, 1)
	ch, cU = build(tiled, true, 1)
	if ch.Iterations != un.Iterations || cU.MaxDiff(uU) != 0 {
		t.Errorf("temporal at depth 1 must be a no-op")
	}
}

package solver

import (
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stats"
	"tealeaf/internal/stencil"
)

// engineVariant names one CG combination under test: jac_diag unless
// block selects jac_block, on a grid of halo 2 unless halo is set,
// solved by the engine unless oracle selects the textbook PCG loop.
type engineVariant struct {
	name     string
	deflated bool
	block    bool
	halo     int
	oracle   bool
}

// gridHalo is the halo depth v's grid is allocated with.
func (v engineVariant) gridHalo() int {
	if v.halo > 0 {
		return v.halo
	}
	return 2
}

// rankRun2D solves the deterministic denAt2D/rhsAt2D problem with the
// given CG variant on ranks Hub ranks of workers workers each (grain 1,
// so the test meshes, below the default grain, still split into one band
// per worker) and returns the iteration count, the gathered solution and
// rank 0's solver-only trace.
func rankRun2D(t *testing.T, v engineVariant, ranks, workers int) (int, *grid.Field2D, stats.Trace) {
	t.Helper()
	const n = 24
	halo := v.gridHalo()
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
		pool := par.NewPool(workers).WithGrain(1)
		defer pool.Close()
		phys := c.Physical()
		op, err := stencil.BuildOperator2D(pool, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
		if err != nil {
			return err
		}
		opts := Options{Tol: 1e-10, Comm: c, Pool: pool}
		opts.Precond = precond.NewJacobi(pool, op)
		if v.block {
			opts.Precond = precond.NewBlockJacobi(pool, op, 0)
		}
		if v.deflated {
			defl, err := deflate.New(par.Serial, c, op,
				deflate.Geometry{GlobalNX: n, GlobalNY: n, OffsetX: ext.X0, OffsetY: ext.Y0},
				deflate.Config{BX: 4, BY: 4})
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

// rankRun3D is the 3D twin on the denAt3D/rhsAt3D problem.
func rankRun3D(t *testing.T, v engineVariant, ranks, workers int) (int, *grid.Field3D, stats.Trace) {
	t.Helper()
	const n = 12
	halo := v.gridHalo()
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
	err := comm.Run(part, func(c *comm.RankComm) error {
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
		pool := par.NewPool(workers).WithGrain(1)
		defer pool.Close()
		phys := c.Physical3D()
		op, err := stencil.BuildOperator3D(pool, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
				Up: phys.Up, Back: phys.Back, Front: phys.Front})
		if err != nil {
			return err
		}
		opts := Options{Tol: 1e-10, Comm: c, Pool: pool}
		opts.Precond3D = precond.NewJacobi3D(pool, op)
		if v.block {
			opts.Precond3D = precond.NewBlockJacobi3D(pool, op, 0)
		}
		if v.deflated {
			defl, err := deflate.New3D(par.Serial, c, op,
				deflate.Geometry3D{GlobalNX: n, GlobalNY: n, GlobalNZ: n,
					OffsetX: ext.X0, OffsetY: ext.Y0, OffsetZ: ext.Z0},
				deflate.Config{BX: 3, BY: 3, BZ: 3})
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

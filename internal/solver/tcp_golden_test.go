package solver

import (
	"fmt"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// Golden equivalence: the TCP backend must reproduce the Hub reference —
// same solver code, same partition, same deterministic problem — to a
// solution max-diff ≤ 1e-10 and iteration counts ±1, across
// ranks {1,2,4} × {CG, PPCG at halo depth {1,2,3}} × {2D, 3D}. The Hub is
// the reference implementation; these tests are what lets every future
// change to the wire protocol be checked against it mechanically.

// solveRanks2D runs one distributed 2D solve with the given runner
// (Hub or TCP) and returns per-rank iteration counts plus the gathered
// solution.
func solveRanks2D(t *testing.T, kind Kind, nx, ny, halo, depth int, part *grid.Partition,
	runner func(fn func(c comm.Communicator) error) error) ([]int, *grid.Field2D) {
	t.Helper()
	gg := grid.UnitGrid2D(nx, ny, halo)
	gathered := grid.NewField2D(gg)
	iters := make([]int, part.Ranks())
	err := runner(func(c comm.Communicator) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		den := grid.NewField2D(sub)
		rhs := grid.NewField2D(sub)
		for k := 0; k < sub.NY; k++ {
			for j := 0; j < sub.NX; j++ {
				den.Set(j, k, denAt2D(ext.X0+j, ext.Y0+k))
				rhs.Set(j, k, rhsAt2D(ext.X0+j, ext.Y0+k))
			}
		}
		if err := c.Exchange(sub.Halo, den); err != nil {
			return err
		}
		phys := c.Physical()
		op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
		if err != nil {
			return err
		}
		p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := Solve(kind, p, Options{
			Tol: 1e-12, Comm: c, Precond: precond.NewJacobi(par.Serial, op),
			EigenCGIters: 10, InnerSteps: 4, HaloDepth: depth,
		})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("rank %d: not converged: %+v", c.Rank(), res)
		}
		iters[c.Rank()] = res.Iterations
		var dst *grid.Field2D
		if c.Rank() == 0 {
			dst = gathered
		}
		return c.GatherInterior(p.U, dst)
	})
	if err != nil {
		t.Fatalf("%s depth=%d ranks=%d: %v", kind, depth, part.Ranks(), err)
	}
	return iters, gathered
}

// solveRanks3D is solveRanks2D for a 3D box decomposition.
func solveRanks3D(t *testing.T, kind Kind, n, halo, depth int, part *grid.Partition3D,
	runner func(fn func(c comm.Communicator) error) error) ([]int, *grid.Field3D) {
	t.Helper()
	gg := grid.UnitGrid3D(n, n, n, halo)
	gathered := grid.NewField3D(gg)
	iters := make([]int, part.Ranks())
	err := runner(func(c comm.Communicator) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1, ext.Z0, ext.Z1)
		if err != nil {
			return err
		}
		den := grid.NewField3D(sub)
		rhs := grid.NewField3D(sub)
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
		phys := c.Physical3D()
		op, err := stencil.BuildOperator3D(par.Serial, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
				Up: phys.Up, Back: phys.Back, Front: phys.Front})
		if err != nil {
			return err
		}
		p := Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := Solve3D(kind, p, Options{
			Tol: 1e-12, Comm: c, Precond3D: precond.NewJacobi3D(par.Serial, op),
			EigenCGIters: 10, InnerSteps: 4, HaloDepth: depth,
		})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("rank %d: not converged: %+v", c.Rank(), res)
		}
		iters[c.Rank()] = res.Iterations
		var dst *grid.Field3D
		if c.Rank() == 0 {
			dst = gathered
		}
		return c.GatherInterior3D(p.U, dst)
	})
	if err != nil {
		t.Fatalf("3D %s depth=%d ranks=%d: %v", kind, depth, part.Ranks(), err)
	}
	return iters, gathered
}

func TestTCPGoldenVsHub2D(t *testing.T) {
	const nx, ny = 24, 24
	layouts := [][2]int{{1, 1}, {2, 1}, {2, 2}}
	for _, kind := range []Kind{KindCG, KindPPCG} {
		for _, depth := range depthsOf(kind) {
			halo := depth
			if halo < 2 {
				halo = 2
			}
			for _, pxpy := range layouts {
				part := grid.MustPartition(nx, ny, pxpy[0], pxpy[1])
				hubIters, hubU := solveRanks2D(t, kind, nx, ny, halo, depth, part,
					func(fn func(c comm.Communicator) error) error {
						return comm.Run(part, func(c *comm.RankComm) error { return fn(c) })
					})
				tcpIters, tcpU := solveRanks2D(t, kind, nx, ny, halo, depth, part,
					func(fn func(c comm.Communicator) error) error {
						return comm.RunTCP(part, fn)
					})
				for r := range hubIters {
					if d := tcpIters[r] - hubIters[r]; d < -1 || d > 1 {
						t.Errorf("%s depth=%d ranks=%v rank %d: tcp %d iterations vs hub %d (want ±1)",
							kind, depth, pxpy, r, tcpIters[r], hubIters[r])
					}
				}
				if d := tcpU.MaxDiff(hubU); d > 1e-10 {
					t.Errorf("%s depth=%d ranks=%v: tcp solution differs from hub by %v", kind, depth, pxpy, d)
				}
			}
		}
	}
}

func TestTCPGoldenVsHub3D(t *testing.T) {
	const n = 12
	layouts := [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}}
	for _, kind := range []Kind{KindCG, KindPPCG} {
		for _, depth := range depthsOf(kind) {
			halo := depth
			if halo < 2 {
				halo = 2
			}
			for _, p := range layouts {
				part := grid.MustPartition3D(n, n, n, p[0], p[1], p[2])
				hubIters, hubU := solveRanks3D(t, kind, n, halo, depth, part,
					func(fn func(c comm.Communicator) error) error {
						return comm.Run3D(part, func(c *comm.RankComm) error { return fn(c) })
					})
				tcpIters, tcpU := solveRanks3D(t, kind, n, halo, depth, part,
					func(fn func(c comm.Communicator) error) error {
						return comm.RunTCP3D(part, fn)
					})
				for r := range hubIters {
					if d := tcpIters[r] - hubIters[r]; d < -1 || d > 1 {
						t.Errorf("3D %s depth=%d ranks=%v rank %d: tcp %d iterations vs hub %d (want ±1)",
							kind, depth, p, r, tcpIters[r], hubIters[r])
					}
				}
				if d := tcpU.MaxDiff(hubU); d > 1e-10 {
					t.Errorf("3D %s depth=%d ranks=%v: tcp solution differs from hub by %v", kind, depth, p, d)
				}
			}
		}
	}
}

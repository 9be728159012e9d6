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

// Deterministic, smooth-ish global fields so every rank paints exactly
// the cells it owns with the values the serial baseline sees.
func denAt2D(j, k int) float64 { return 0.6 + 4*float64((j*31+k*17)%23)/23 }
func rhsAt2D(j, k int) float64 {
	if (j/3+k/3)%2 == 0 {
		return 5
	}
	return 0.1
}

func denAt3D(i, j, k int) float64 { return 0.6 + 4*float64((i*31+j*17+k*13)%23)/23 }
func rhsAt3D(i, j, k int) float64 {
	if (i/2+j/2+k/2)%2 == 0 {
		return 5
	}
	return 0.1
}

// solveSerial2D produces the single-rank baseline for the invariance tests.
func solveSerial2D(t *testing.T, kind Kind, nx, ny, halo, depth int) (Result, *grid.Field2D) {
	t.Helper()
	g := grid.UnitGrid2D(nx, ny, halo)
	den := grid.NewField2D(g)
	rhs := grid.NewField2D(g)
	for k := 0; k < ny; k++ {
		for j := 0; j < nx; j++ {
			den.Set(j, k, denAt2D(j, k))
			rhs.Set(j, k, rhsAt2D(j, k))
		}
	}
	den.ReflectHalos(halo)
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
	res, err := Solve(kind, p, Options{
		Tol: 1e-12, Precond: precond.NewJacobi(par.Serial, op),
		EigenCGIters: 10, InnerSteps: 4, HaloDepth: depth,
	})
	if err != nil {
		t.Fatalf("serial %s: %v", kind, err)
	}
	if !res.Converged {
		t.Fatalf("serial %s did not converge: %+v", kind, res)
	}
	return res, p.U
}

// rank-count invariance, 2D: identical convergence (solution within
// tolerance, iterations ±1) across ranks {1,2,4} × HaloDepth {1,2,3}.
func TestRankCountInvariance2D(t *testing.T) {
	const nx, ny = 24, 24
	layouts := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}}
	for _, kind := range []Kind{KindCG, KindPPCG} {
		for _, depth := range []int{1, 2, 3} {
			halo := depth
			if halo < 2 {
				halo = 2
			}
			refRes, refU := solveSerial2D(t, kind, nx, ny, halo, depth)
			for ranks, pxpy := range layouts {
				part := grid.MustPartition(nx, ny, pxpy[0], pxpy[1])
				gg := grid.UnitGrid2D(nx, ny, halo)
				gathered := grid.NewField2D(gg)
				iters := make([]int, part.Ranks())
				err := comm.Run(part, func(c *comm.RankComm) error {
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
						t.Errorf("%s ranks=%d depth=%d rank %d: not converged: %+v", kind, ranks, depth, c.Rank(), res)
					}
					iters[c.Rank()] = res.Iterations
					var dst *grid.Field2D
					if c.Rank() == 0 {
						dst = gathered
					}
					return c.GatherInterior(p.U, dst)
				})
				if err != nil {
					t.Fatalf("%s ranks=%d depth=%d: %v", kind, ranks, depth, err)
				}
				for r, it := range iters {
					if d := it - refRes.Iterations; d < -1 || d > 1 {
						t.Errorf("%s ranks=%d depth=%d rank %d: %d iterations vs serial %d (want ±1)",
							kind, ranks, depth, r, it, refRes.Iterations)
					}
				}
				if d := gathered.MaxDiff(refU); d > 1e-10 {
					t.Errorf("%s ranks=%d depth=%d: solution differs from serial by %v", kind, ranks, depth, d)
				}
			}
		}
	}
}

// solveSerial3D produces the single-rank 3D baseline.
func solveSerial3D(t *testing.T, kind Kind, n, halo, depth int) (Result, *grid.Field3D) {
	t.Helper()
	g := grid.UnitGrid3D(n, n, n, halo)
	den := grid.NewField3D(g)
	rhs := grid.NewField3D(g)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				den.Set(i, j, k, denAt3D(i, j, k))
				rhs.Set(i, j, k, rhsAt3D(i, j, k))
			}
		}
	}
	den.ReflectHalos(halo)
	op, err := stencil.BuildOperator3D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
	res, err := Solve3D(kind, p, Options{
		Tol: 1e-12, Precond3D: precond.NewJacobi3D(par.Serial, op),
		EigenCGIters: 10, InnerSteps: 4, HaloDepth: depth,
	})
	if err != nil {
		t.Fatalf("serial 3D %s: %v", kind, err)
	}
	if !res.Converged {
		t.Fatalf("serial 3D %s did not converge: %+v", kind, res)
	}
	return res, p.U
}

// solveDistributed3D runs the distributed 3D solve and returns rank 0's
// trace, the per-rank iteration counts and the gathered solution.
func solveDistributed3D(t *testing.T, kind Kind, n, halo, depth, px, py, pz int) ([]int, *grid.Field3D, Result, *comm.RankComm) {
	t.Helper()
	part := grid.MustPartition3D(n, n, n, px, py, pz)
	gg := grid.UnitGrid3D(n, n, n, halo)
	gathered := grid.NewField3D(gg)
	iters := make([]int, part.Ranks())
	var rank0Res Result
	var rank0Comm *comm.RankComm
	err := comm.Run3D(part, func(c *comm.RankComm) error {
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
		// The density pre-exchange above is test-harness setup; clear it so
		// the trace holds solver communication only.
		c.Trace().Reset()
		res, err := Solve3D(kind, p, Options{
			Tol: 1e-12, Comm: c, Precond3D: precond.NewJacobi3D(par.Serial, op),
			EigenCGIters: 10, InnerSteps: 4, HaloDepth: depth,
		})
		if err != nil {
			return err
		}
		if !res.Converged {
			t.Errorf("3D %s rank %d: not converged: %+v", kind, c.Rank(), res)
		}
		iters[c.Rank()] = res.Iterations
		if c.Rank() == 0 {
			rank0Res = res
			rank0Comm = c
		}
		var dst *grid.Field3D
		if c.Rank() == 0 {
			dst = gathered
		}
		return c.GatherInterior3D(p.U, dst)
	})
	if err != nil {
		t.Fatalf("3D %s %dx%dx%d ranks: %v", kind, px, py, pz, err)
	}
	return iters, gathered, rank0Res, rank0Comm
}

// rank-count invariance, 3D: ranks {1,2,4} × HaloDepth {1,2,3} for CG
// and PPCG, all against the single-rank baseline.
func TestRankCountInvariance3D(t *testing.T) {
	const n = 12
	layouts := map[int][3]int{1: {1, 1, 1}, 2: {2, 1, 1}, 4: {2, 2, 1}}
	for _, kind := range []Kind{KindCG, KindPPCG} {
		for _, depth := range []int{1, 2, 3} {
			halo := depth
			if halo < 2 {
				halo = 2
			}
			refRes, refU := solveSerial3D(t, kind, n, halo, depth)
			for ranks, p := range layouts {
				iters, gathered, _, _ := solveDistributed3D(t, kind, n, halo, depth, p[0], p[1], p[2])
				for r, it := range iters {
					if d := it - refRes.Iterations; d < -1 || d > 1 {
						t.Errorf("3D %s ranks=%d depth=%d rank %d: %d iterations vs serial %d (want ±1)",
							kind, ranks, depth, r, it, refRes.Iterations)
					}
				}
				if d := gathered.MaxDiff(refU); d > 1e-10 {
					t.Errorf("3D %s ranks=%d depth=%d: solution differs from serial by %v", kind, ranks, depth, d)
				}
			}
		}
	}
}

// The PR's acceptance scenario: a multi-rank 3D PPCG solve (comm.Run3D
// over a Partition3D, point-Jacobi, HaloDepth ≥ 2) converges to the
// single-rank solution within 1e-10, with trace counters confirming the
// matrix-powers cadence — one depth-d exchange per d inner steps.
func TestDistributed3DPPCGMatrixPowersAcceptance(t *testing.T) {
	const n, depth = 12, 2
	halo := depth
	_, refU := solveSerial3D(t, KindPPCG, n, halo, depth)
	_, gathered, res, c := solveDistributed3D(t, KindPPCG, n, halo, depth, 2, 2, 1)
	if d := gathered.MaxDiff(refU); d > 1e-10 {
		t.Errorf("distributed solution differs from single-rank by %v", d)
	}
	// Cadence: every inner solve of InnerSteps=4 steps at depth 2 needs
	// exactly ceil(4/2) = 2 depth-2 exchanges. One inner solve runs per
	// outer iteration plus the initial application after the bootstrap.
	// The fused-CG bootstrap runs the deep-halo cycle too: one depth-2
	// exchange per 2 bootstrap iterations, plus the one-time deep refresh
	// of the folded Jacobi diagonal.
	innerApplies := res.TotalInner / 4
	wantDeep := innerApplies * 2
	wantDeep += (res.BootstrapIters+depth-1)/depth + 1
	tr := c.Trace()
	if got := tr.ExchangesByDepth[depth]; got != wantDeep {
		t.Errorf("depth-%d exchanges = %d, want %d (%d inner applies of 4 steps)",
			depth, got, wantDeep, innerApplies)
	}
}

// TestFusedCGHubMatchesSerialClassic: the CG engine on the in-process
// hub at ranks {1, 2, 4}, unpreconditioned, with the folded Jacobi
// diagonal and with jac_block's explicit z, against the single-rank
// textbook PCG oracle: solution within 1e-10, iterations within ±2, and
// every rank stopping at the same iteration.
func TestFusedCGHubMatchesSerialClassic(t *testing.T) {
	const nx, ny, halo = 24, 24, 2
	layouts := []struct {
		ranks  int
		px, py int
	}{{1, 1, 1}, {2, 2, 1}, {4, 2, 2}}
	for _, precondName := range []string{"none", "jac_diag", "jac_block"} {
		opts := func(op *stencil.Operator2D) Options {
			m, err := precond.FromName(precondName, par.Serial, op)
			if err != nil {
				t.Fatal(err)
			}
			return Options{Tol: 1e-12, Precond: m}
		}
		g := grid.UnitGrid2D(nx, ny, halo)
		den, rhs := grid.NewField2D(g), grid.NewField2D(g)
		for k := 0; k < ny; k++ {
			for j := 0; j < nx; j++ {
				den.Set(j, k, denAt2D(j, k))
				rhs.Set(j, k, rhsAt2D(j, k))
			}
		}
		den.ReflectHalos(halo)
		op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
		if err != nil {
			t.Fatal(err)
		}
		ref := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		refRes, err := solveCGClassic(ref, opts(op))
		if err != nil || !refRes.Converged {
			t.Fatalf("%s classic reference: %v %+v", precondName, err, refRes)
		}
		for _, l := range layouts {
			t.Run(fmt.Sprintf("%s/ranks=%d", precondName, l.ranks), func(t *testing.T) {
				part := grid.MustPartition(nx, ny, l.px, l.py)
				gathered := grid.NewField2D(g)
				iters := make([]int, part.Ranks())
				err := comm.Run(part, func(c *comm.RankComm) error {
					ext := part.ExtentOf(c.Rank())
					sub, err := g.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
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
					phys := c.Physical()
					op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity,
						stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
					if err != nil {
						return err
					}
					p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
					o := opts(op)
					o.Comm = c
					res, err := SolveCG(p, o)
					if err != nil {
						return err
					}
					if !res.Converged {
						t.Errorf("rank %d: not converged: %+v", c.Rank(), res)
					}
					iters[c.Rank()] = res.Iterations
					var dst *grid.Field2D
					if c.Rank() == 0 {
						dst = gathered
					}
					return c.GatherInterior(p.U, dst)
				})
				if err != nil {
					t.Fatal(err)
				}
				for r, it := range iters {
					if it != iters[0] {
						t.Errorf("rank %d stopped at iteration %d, rank 0 at %d", r, it, iters[0])
					}
				}
				if d := iters[0] - refRes.Iterations; d < -2 || d > 2 {
					t.Errorf("%d iterations vs serial classic %d (want ±2)", iters[0], refRes.Iterations)
				}
				if d := gathered.MaxDiff(ref.U); d > 1e-10 {
					t.Errorf("solution differs from serial classic by %v", d)
				}
			})
		}
	}
}

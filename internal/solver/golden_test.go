package solver

import (
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// Golden equivalence tests: these pin the unified dimension-agnostic
// solver loops against the behaviour of the pre-refactor per-dimension
// paths (the cg/cg3d, cheby/cheby3d, ppcg/ppcg3d twins). The table below
// was generated by running this harness against the duplicated loops
// immediately before they were collapsed; the refactored code must
// reproduce every entry to iteration count ±1 and solution L2 norm within
// a 1e-10 relative tolerance, across {CG, Chebyshev, PPCG} × {2D, 3D} ×
// ranks {1, 4} × two legs. The "fused" leg is the default solve with the
// folded Jacobi diagonal. The second leg of CG is the textbook PCG oracle
// (classic_test.go) with the same preconditioner; the second leg of
// Chebyshev and PPCG is a jac_block solve, which runs their explicit-z
// branches. The jac_block rows were generated at the commit before CG's
// jac_block solves moved from the textbook loop onto the single-reduction
// engine, and the engine meets them to the same contract.
//
// Regenerate (e.g. after an intentional numerical change) with:
//
//	GOLDEN_GEN=1 go test ./internal/solver -run TestGoldenEquivalence -v

type goldenKey struct {
	kind  Kind
	dims  int
	ranks int
	leg   string // "fused", "oracle" (CG) or "jac_block" (Chebyshev, PPCG)
}

type goldenVal struct {
	iters int
	norm  float64 // L2 norm of the gathered interior solution
}

func (k goldenKey) String() string {
	return fmt.Sprintf("%s/%dD/ranks=%d/%s", k.kind, k.dims, k.ranks, k.leg)
}

// goldenTable holds the pre-refactor behaviour, generated at commit
// 4670adc (the last commit with separate 2D/3D loop bodies); the
// jac_block rows were generated at commit 1c34a1a.
var goldenTable = map[goldenKey]goldenVal{
	{"cg", 2, 1, "fused"}:            {86, 61.3053574334986},
	{"cg", 2, 1, "oracle"}:           {86, 61.3053574334986},
	{"cg", 2, 4, "fused"}:            {86, 61.3053574334986},
	{"cg", 2, 4, "oracle"}:           {86, 61.3053574334986},
	{"cg", 3, 1, "fused"}:            {54, 106.271376985618},
	{"cg", 3, 1, "oracle"}:           {54, 106.271376985618},
	{"cg", 3, 4, "fused"}:            {54, 106.271376985618},
	{"cg", 3, 4, "oracle"}:           {54, 106.271376985618},
	{"chebyshev", 2, 1, "fused"}:     {340, 61.3053572496858},
	{"chebyshev", 2, 1, "jac_block"}: {240, 61.3053572463082},
	{"chebyshev", 2, 4, "fused"}:     {340, 61.3053572496858},
	{"chebyshev", 2, 4, "jac_block"}: {240, 61.3053572463082},
	{"chebyshev", 3, 1, "fused"}:     {130, 106.271376920425},
	{"chebyshev", 3, 1, "jac_block"}: {100, 106.271376929796},
	{"chebyshev", 3, 4, "fused"}:     {130, 106.271376920425},
	{"chebyshev", 3, 4, "jac_block"}: {100, 106.271376929796},
	{"ppcg", 2, 1, "fused"}:          {29, 61.3053574334739},
	{"ppcg", 2, 1, "jac_block"}:      {25, 61.3053574339337},
	{"ppcg", 2, 4, "fused"}:          {29, 61.3053574334739},
	{"ppcg", 2, 4, "jac_block"}:      {25, 61.3053574339338},
	{"ppcg", 3, 1, "fused"}:          {21, 106.271376985734},
	{"ppcg", 3, 1, "jac_block"}:      {19, 106.271376985592},
	{"ppcg", 3, 4, "fused"}:          {21, 106.271376985734},
	{"ppcg", 3, 4, "jac_block"}:      {19, 106.271376985592},
}

const (
	goldenN2D  = 24
	goldenN3D  = 12
	goldenHalo = 2
	goldenTol  = 1e-10
)

func goldenOpts(c comm.Communicator) Options {
	return Options{Tol: goldenTol, Comm: c, EigenCGIters: 10, InnerSteps: 4, HaloDepth: 1}
}

// goldenRun2D solves one 2D combo's problem with its leg's
// preconditioner and loop.
func goldenRun2D(kind Kind, leg string, p Problem, c comm.Communicator) (Result, error) {
	o := goldenOpts(c)
	o.Precond = precond.NewJacobi(par.Serial, p.Op)
	switch leg {
	case "jac_block":
		o.Precond = precond.NewBlockJacobi(par.Serial, p.Op, 0)
	case "oracle":
		return solveCGClassic(p, o)
	}
	return Solve(kind, p, o)
}

// goldenRun3D is goldenRun2D's 3D twin.
func goldenRun3D(kind Kind, leg string, p Problem3D, c comm.Communicator) (Result, error) {
	o := goldenOpts(c)
	o.Precond3D = precond.NewJacobi3D(par.Serial, p.Op)
	switch leg {
	case "jac_block":
		o.Precond3D = precond.NewBlockJacobi3D(par.Serial, p.Op, 0)
	case "oracle":
		return solveCGClassic3D(p, o)
	}
	return Solve3D(kind, p, o)
}

// goldenSolve2D runs one 2D combo on the deterministic denAt2D/rhsAt2D
// fields and returns rank 0's iteration count and the gathered solution
// L2 norm.
func goldenSolve2D(t *testing.T, kind Kind, ranks int, leg string) (int, float64) {
	t.Helper()
	const n = goldenN2D
	if ranks == 1 {
		g := grid.UnitGrid2D(n, n, goldenHalo)
		den, rhs := grid.NewField2D(g), grid.NewField2D(g)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				den.Set(j, k, denAt2D(j, k))
				rhs.Set(j, k, rhsAt2D(j, k))
			}
		}
		den.ReflectHalos(goldenHalo)
		op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
		if err != nil {
			t.Fatal(err)
		}
		p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := goldenRun2D(kind, leg, p, nil)
		if err != nil {
			t.Fatalf("serial 2D %s: %v", kind, err)
		}
		if !res.Converged {
			t.Fatalf("serial 2D %s did not converge: %+v", kind, res)
		}
		return res.Iterations, p.U.Norm2Interior()
	}

	part := grid.MustPartition(n, n, 2, 2)
	gg := grid.UnitGrid2D(n, n, goldenHalo)
	gathered := grid.NewField2D(gg)
	iters := make([]int, part.Ranks())
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
		phys := c.Physical()
		op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
		if err != nil {
			return err
		}
		p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := goldenRun2D(kind, leg, p, c)
		if err != nil {
			return err
		}
		if !res.Converged {
			t.Errorf("2D %s ranks=4 rank %d: not converged: %+v", kind, c.Rank(), res)
		}
		iters[c.Rank()] = res.Iterations
		var dst *grid.Field2D
		if c.Rank() == 0 {
			dst = gathered
		}
		return c.GatherInterior(p.U, dst)
	})
	if err != nil {
		t.Fatalf("2D %s ranks=4: %v", kind, err)
	}
	return iters[0], gathered.Norm2Interior()
}

func norm3D(f *grid.Field3D) float64 {
	g := f.Grid
	var s float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				v := f.At(i, j, k)
				s += v * v
			}
		}
	}
	return math.Sqrt(s)
}

// goldenSolve3D is the 3D twin of goldenSolve2D on the denAt3D/rhsAt3D
// fields.
func goldenSolve3D(t *testing.T, kind Kind, ranks int, leg string) (int, float64) {
	t.Helper()
	const n = goldenN3D
	if ranks == 1 {
		g := grid.UnitGrid3D(n, n, n, goldenHalo)
		den, rhs := grid.NewField3D(g), grid.NewField3D(g)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					den.Set(i, j, k, denAt3D(i, j, k))
					rhs.Set(i, j, k, rhsAt3D(i, j, k))
				}
			}
		}
		den.ReflectHalos(goldenHalo)
		op, err := stencil.BuildOperator3D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical3D)
		if err != nil {
			t.Fatal(err)
		}
		p := Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := goldenRun3D(kind, leg, p, nil)
		if err != nil {
			t.Fatalf("serial 3D %s: %v", kind, err)
		}
		if !res.Converged {
			t.Fatalf("serial 3D %s did not converge: %+v", kind, res)
		}
		return res.Iterations, norm3D(p.U)
	}

	part := grid.MustPartition3D(n, n, n, 2, 2, 1)
	gg := grid.UnitGrid3D(n, n, n, goldenHalo)
	gathered := grid.NewField3D(gg)
	iters := make([]int, part.Ranks())
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
		phys := c.Physical3D()
		op, err := stencil.BuildOperator3D(par.Serial, den, 0.04, stencil.Conductivity,
			stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
				Up: phys.Up, Back: phys.Back, Front: phys.Front})
		if err != nil {
			return err
		}
		p := Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := goldenRun3D(kind, leg, p, c)
		if err != nil {
			return err
		}
		if !res.Converged {
			t.Errorf("3D %s ranks=4 rank %d: not converged: %+v", kind, c.Rank(), res)
		}
		iters[c.Rank()] = res.Iterations
		var dst *grid.Field3D
		if c.Rank() == 0 {
			dst = gathered
		}
		return c.GatherInterior3D(p.U, dst)
	})
	if err != nil {
		t.Fatalf("3D %s ranks=4: %v", kind, err)
	}
	return iters[0], norm3D(gathered)
}

func TestGoldenEquivalence(t *testing.T) {
	gen := os.Getenv("GOLDEN_GEN") != ""
	var keys []goldenKey
	for _, kind := range []Kind{KindCG, KindCheby, KindPPCG} {
		for _, dims := range []int{2, 3} {
			for _, ranks := range []int{1, 4} {
				second := "jac_block"
				if kind == KindCG {
					second = "oracle"
				}
				for _, leg := range []string{"fused", second} {
					keys = append(keys, goldenKey{kind, dims, ranks, leg})
				}
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	for _, key := range keys {
		key := key
		t.Run(key.String(), func(t *testing.T) {
			var iters int
			var norm float64
			if key.dims == 2 {
				iters, norm = goldenSolve2D(t, key.kind, key.ranks, key.leg)
			} else {
				iters, norm = goldenSolve3D(t, key.kind, key.ranks, key.leg)
			}
			if gen {
				fmt.Printf("\t{%q, %d, %d, %q}: {%d, %.15g},\n", key.kind, key.dims, key.ranks, key.leg, iters, norm)
				return
			}
			want, ok := goldenTable[key]
			if !ok {
				t.Fatalf("no golden entry for %s (run with GOLDEN_GEN=1 to generate)", key)
			}
			if d := iters - want.iters; d < -1 || d > 1 {
				t.Errorf("%s: %d iterations, golden %d (want ±1)", key, iters, want.iters)
			}
			if rel := math.Abs(norm-want.norm) / want.norm; rel > 1e-10 {
				t.Errorf("%s: solution norm %.15g differs from golden %.15g by %v (want ≤1e-10)",
					key, norm, want.norm, rel)
			}
		})
	}
}

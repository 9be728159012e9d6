package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// benchIters is the fixed iteration budget one benchmark op spends inside
// SolveCG; per-iteration figures are ns/op divided by benchIters (startup
// — field allocation, one residual pass, one fused-init or dot pass — is
// amortised over the budget).
const benchIters = 48

func benchProblem(nx, ny int, seed int64) Problem {
	g := grid.UnitGrid2D(nx, ny, 2)
	den := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < ny; k++ {
		for j := 0; j < nx; j++ {
			den.Set(j, k, 0.5+rng.Float64()*4)
		}
	}
	den.ReflectHalos(g.Halo)
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		panic(err)
	}
	rhs := grid.NewField2D(g)
	for k := 0; k < ny; k++ {
		for j := 0; j < nx; j++ {
			v := 0.1
			if j > nx/4 && j < nx/2 && k > ny/4 && k < ny/2 {
				v = 10
			}
			rhs.Set(j, k, v)
		}
	}
	return Problem{Op: op, U: rhs.Clone(), RHS: rhs}
}

// benchCGIterations times benchIters CG iterations per op. Tol is set
// unreachably low so the solver always spends the full budget. impl picks
// the path: "fused" (default single-reduction loop), "unfused" (the
// classic loop structure on the current kernels, via DisableFused), or
// "seed" (the frozen pre-optimisation reference in refbench.go).
func benchCGIterations(b *testing.B, n int, impl, precondName string) {
	p := benchProblem(n, n, 42)
	u0 := p.U.Clone()
	var m precond.Preconditioner
	if precondName == "jac_diag" {
		m = precond.NewJacobi(par.Serial, p.Op)
	}
	// One CG iteration sweeps the grid a handful of times; report the
	// per-iteration traffic of the dominant three passes (~12 field
	// visits at 8 bytes) so ns/op converts to an effective bandwidth.
	b.SetBytes(int64(benchIters) * int64(n) * int64(n) * 8 * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.U.CopyFrom(u0)
		if impl == "seed" {
			mm := m
			if mm == nil {
				mm = precond.NewNone()
			}
			NewSeedBenchCG(p, mm).Iterate(benchIters)
			continue
		}
		o := Options{Tol: 1e-300, MaxIters: benchIters, Precond: m, DisableFused: impl == "unfused"}
		if _, err := SolveCG(p, o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(benchIters)
	b.ReportMetric(nsPerIter, "ns/iter")
}

func BenchmarkCGIteration(b *testing.B) {
	for _, n := range []int{1024, 2048} {
		for _, impl := range []string{"fused", "unfused", "seed"} {
			for _, precondName := range []string{"none", "jac_diag"} {
				b.Run(fmt.Sprintf("%dx%d/%s/%s", n, n, impl, precondName), func(b *testing.B) {
					benchCGIterations(b, n, impl, precondName)
				})
			}
		}
	}
}

// BenchmarkPPCGInnerStep times the Chebyshev inner smoothing steps that
// dominate PPCG wall time through the solver itself: fused is the one
// merged ChebyStep sweep per step (plus the one set-up sweep per outer
// iteration), unfused the five-sweep reference path.
func BenchmarkPPCGInnerStep(b *testing.B) {
	for _, disable := range []bool{false, true} {
		label := "fused"
		if disable {
			label = "unfused"
		}
		b.Run(label, func(b *testing.B) {
			n := 1024
			p := benchProblem(n, n, 43)
			u0 := p.U.Clone()
			o := Options{Tol: 1e-300, MaxIters: 4, EigenCGIters: 2, InnerSteps: 8,
				Precond: precond.NewJacobi(par.Serial, p.Op), DisableFused: disable}
			b.SetBytes(int64(o.MaxIters) * int64(o.InnerSteps) * int64(n) * int64(n) * 8 * 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.U.CopyFrom(u0)
				if _, err := SolvePPCG(p, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

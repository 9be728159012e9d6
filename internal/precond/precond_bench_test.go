package precond

import (
	"fmt"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// BenchmarkPrecondApply times the explicit applications z = M⁻¹r of
// jac_diag and jac_block over the interior, 2D at 1024² and 3D at 128³,
// on 1 and 2 workers, in ns/cell. The solvers fold jac_diag into their
// sweeps, so jac_block's strip solve is the application a solve pays for.
func BenchmarkPrecondApply(b *testing.B) {
	const n2, n3 = 1024, 128
	rng := rand.New(rand.NewSource(1))
	g2 := grid.UnitGrid2D(n2, n2, 2)
	den2 := grid.NewField2D(g2)
	for i := range den2.Data {
		den2.Data[i] = 0.5 + rng.Float64()*4
	}
	op2, err := stencil.BuildOperator2D(par.Serial, den2, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		b.Fatal(err)
	}
	g3 := grid.UnitGrid3D(n3, n3, n3, 2)
	den3 := grid.NewField3D(g3)
	for i := range den3.Data {
		den3.Data[i] = 0.5 + rng.Float64()*4
	}
	op3, err := stencil.BuildOperator3D(par.Serial, den3, 0.04, stencil.Conductivity, stencil.AllPhysical3D)
	if err != nil {
		b.Fatal(err)
	}
	r2, z2 := grid.NewField2D(g2), grid.NewField2D(g2)
	randomData(rng, r2.Data)
	r3, z3 := grid.NewField3D(g3), grid.NewField3D(g3)
	randomData(rng, r3.Data)
	in2, in3 := g2.Interior(), g3.Interior()
	for _, name := range []string{"jac_diag", "jac_block"} {
		m2, err := FromName(name, par.Serial, op2)
		if err != nil {
			b.Fatal(err)
		}
		m3, err := FromName3D(name, par.Serial, op3)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			pool := par.NewPool(workers)
			b.Cleanup(pool.Close)
			for _, c := range []struct {
				dim   string
				cells int
				run   func()
			}{
				{"2D", in2.Cells(), func() { m2.Apply(pool, in2, r2, z2) }},
				{"3D", in3.Cells(), func() { m3.Apply3D(pool, in3, r3, z3) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", c.dim, name, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						c.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.cells), "ns/cell")
				})
			}
		}
	}
}

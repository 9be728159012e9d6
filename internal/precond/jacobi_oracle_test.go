package precond

import (
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// The Jacobi builders before the reciprocal moved into the diagonal's
// pooled pass: the diagonal, then a serial 1/d loop. They are the oracle
// the one-pass builders must match bit for bit.

func oracleJacobi(pool *par.Pool, op *stencil.Operator2D) *grid.Field2D {
	g := op.Grid
	d := grid.NewField2D(g)
	inner := grid.Bounds{X0: -g.Halo + 1, X1: g.NX + g.Halo - 1, Y0: -g.Halo + 1, Y1: g.NY + g.Halo - 1}
	op.Diagonal(pool, inner, d)
	for k := inner.Y0; k < inner.Y1; k++ {
		for j := inner.X0; j < inner.X1; j++ {
			d.Set(j, k, 1/d.At(j, k))
		}
	}
	return d
}

func oracleJacobi3D(pool *par.Pool, op *stencil.Operator3D) *grid.Field3D {
	g := op.Grid
	d := grid.NewField3D(g)
	inner := grid.Bounds3D{
		X0: -g.Halo + 1, X1: g.NX + g.Halo - 1,
		Y0: -g.Halo + 1, Y1: g.NY + g.Halo - 1,
		Z0: -g.Halo + 1, Z1: g.NZ + g.Halo - 1,
	}
	op.Diagonal(pool, inner, d)
	for k := inner.Z0; k < inner.Z1; k++ {
		for j := inner.Y0; j < inner.Y1; j++ {
			for i := inner.X0; i < inner.X1; i++ {
				d.Set(i, j, k, 1/d.At(i, j, k))
			}
		}
	}
	return d
}

func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestJacobiMatchesOracle requires minv from NewJacobi and NewJacobi3D to
// equal the two-pass oracle's bit for bit, halos included, for both
// coefficient modes, every combination of physical sides and 1, 2, 4 and
// 7 workers.
func TestJacobiMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pools []*par.Pool
	for _, w := range []int{1, 2, 4, 7} {
		p := par.NewPool(w)
		t.Cleanup(p.Close)
		pools = append(pools, p.WithGrain(1))
	}
	for _, coef := range []stencil.Coefficient{stencil.Conductivity, stencil.RecipConductivity} {
		g := grid.MustGrid2D(1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(3), 0, 1.3, 0, 2.1)
		den := grid.NewField2D(g)
		for i := range den.Data {
			den.Data[i] = math.Pow(10, rng.Float64()*4-2)
		}
		for mask := 0; mask < 16; mask++ {
			phys := stencil.PhysicalSides{Left: mask&1 != 0, Right: mask&2 != 0, Down: mask&4 != 0, Up: mask&8 != 0}
			op, err := stencil.BuildOperator2D(par.Serial, den, 0.3, coef, phys)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleJacobi(par.Serial, op)
			for _, pool := range pools {
				if i := firstDiff(NewJacobi(pool, op).InvDiag().Data, want.Data); i >= 0 {
					t.Fatalf("%v %v %+v, %d workers: minv[%d] differs from the oracle", g, coef, phys, pool.Workers(), i)
				}
			}
		}

		g3, err := grid.NewGrid3D(1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(2), 0, 1.7, 0, 0.8, 0, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		den3 := grid.NewField3D(g3)
		for i := range den3.Data {
			den3.Data[i] = math.Pow(10, rng.Float64()*4-2)
		}
		for mask := 0; mask < 64; mask++ {
			phys := stencil.PhysicalSides3D{Left: mask&1 != 0, Right: mask&2 != 0, Down: mask&4 != 0,
				Up: mask&8 != 0, Back: mask&16 != 0, Front: mask&32 != 0}
			op, err := stencil.BuildOperator3D(par.Serial, den3, 0.3, coef, phys)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleJacobi3D(par.Serial, op)
			for _, pool := range pools {
				if i := firstDiff(NewJacobi3D(pool, op).InvDiag3D().Data, want.Data); i >= 0 {
					t.Fatalf("%v %v %+v, %d workers: minv[%d] differs from the oracle", g3, coef, phys, pool.Workers(), i)
				}
			}
		}
	}
}

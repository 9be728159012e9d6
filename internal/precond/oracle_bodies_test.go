package precond

import (
	"fmt"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
	"tealeaf/internal/tridiag"
)

// The preconditioners' Apply bodies as they were before the row walker:
// one 2D body and one 3D body each. The 2D ones split over y (None,
// Jacobi) or over x columns (BlockJacobi, strips along y); the 3D ones
// over z (None, Jacobi) or over y rows (BlockJacobi, strips along z).
// oracle_test.go holds every unified body to these bit for bit, through
// both adapters.

func oracleNone(pool *par.Pool, b grid.Bounds, r, z *grid.Field2D) {
	if r == z {
		return
	}
	g := r.Grid
	rd, zd := r.Data, z.Data
	pool.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			lo, hi := g.Index(b.X0, k), g.Index(b.X1, k)
			copy(zd[lo:hi], rd[lo:hi])
		}
	})
}

func oracleJacobiApply(pool *par.Pool, invDiag *grid.Field2D, b grid.Bounds, r, z *grid.Field2D) {
	g := r.Grid
	rd, zd, dd := r.Data, z.Data, invDiag.Data
	pool.For(b.Y0, b.Y1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			base := g.Index(0, k)
			for j := b.X0; j < b.X1; j++ {
				zd[base+j] = rd[base+j] * dd[base+j]
			}
		}
	})
}

func oracleBlockJacobi(pool *par.Pool, op *stencil.Operator2D, diag *grid.Field2D, bs int, b grid.Bounds, r, z *grid.Field2D) {
	if b.Empty() {
		return
	}
	ky := op.Ky
	pool.For(b.X0, b.X1, func(j0, j1 int) {
		sub := make([]float64, bs)
		dia := make([]float64, bs)
		sup := make([]float64, bs)
		rhs := make([]float64, bs)
		sol := make([]float64, bs)
		wrk := make([]float64, bs)
		for j := j0; j < j1; j++ {
			for k0 := b.Y0; k0 < b.Y1; k0 += bs {
				k1 := min(k0+bs, b.Y1)
				n := k1 - k0
				for i := 0; i < n; i++ {
					k := k0 + i
					dia[i] = diag.At(j, k)
					if i > 0 {
						sub[i] = -ky.At(j, k)
					} else {
						sub[i] = 0
					}
					if i < n-1 {
						sup[i] = -ky.At(j, k+1)
					} else {
						sup[i] = 0
					}
					rhs[i] = r.At(j, k)
				}
				if err := tridiag.Thomas(sub[:n], dia[:n], sup[:n], rhs[:n], sol[:n], wrk[:n]); err != nil {
					panic(fmt.Sprintf("precond: block solve failed: %v", err))
				}
				for i := 0; i < n; i++ {
					z.Set(j, k0+i, sol[i])
				}
			}
		}
	})
}

func oracleNone3D(pool *par.Pool, b grid.Bounds3D, r, z *grid.Field3D) {
	if r == z {
		return
	}
	g := r.Grid
	rd, zd := r.Data, z.Data
	pool.For(b.Z0, b.Z1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				lo, hi := g.Index(b.X0, j, k), g.Index(b.X1, j, k)
				copy(zd[lo:hi], rd[lo:hi])
			}
		}
	})
}

func oracleJacobiApply3D(pool *par.Pool, invDiag *grid.Field3D, b grid.Bounds3D, r, z *grid.Field3D) {
	g := r.Grid
	rd, zd, dd := r.Data, z.Data, invDiag.Data
	pool.For(b.Z0, b.Z1, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				base := g.Index(0, j, k)
				for i := b.X0; i < b.X1; i++ {
					zd[base+i] = rd[base+i] * dd[base+i]
				}
			}
		}
	})
}

func oracleBlockJacobi3D(pool *par.Pool, op *stencil.Operator3D, diag *grid.Field3D, bs int, b grid.Bounds3D, r, z *grid.Field3D) {
	if b.Empty() {
		return
	}
	kz := op.Kz
	pool.For(b.Y0, b.Y1, func(j0, j1 int) {
		sub := make([]float64, bs)
		dia := make([]float64, bs)
		sup := make([]float64, bs)
		rhs := make([]float64, bs)
		sol := make([]float64, bs)
		wrk := make([]float64, bs)
		for j := j0; j < j1; j++ {
			for i := b.X0; i < b.X1; i++ {
				for k0 := b.Z0; k0 < b.Z1; k0 += bs {
					k1 := min(k0+bs, b.Z1)
					n := k1 - k0
					for t := 0; t < n; t++ {
						k := k0 + t
						dia[t] = diag.At(i, j, k)
						if t > 0 {
							sub[t] = -kz.At(i, j, k)
						} else {
							sub[t] = 0
						}
						if t < n-1 {
							sup[t] = -kz.At(i, j, k+1)
						} else {
							sup[t] = 0
						}
						rhs[t] = r.At(i, j, k)
					}
					if err := tridiag.Thomas(sub[:n], dia[:n], sup[:n], rhs[:n], sol[:n], wrk[:n]); err != nil {
						panic(fmt.Sprintf("precond: 3D block solve failed: %v", err))
					}
					for t := 0; t < n; t++ {
						z.Set(i, j, k0+t, sol[t])
					}
				}
			}
		}
	})
}

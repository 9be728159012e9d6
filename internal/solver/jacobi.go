package solver

import (
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/stencil"
)

// SolveJacobi runs the point-Jacobi fixed-point iteration
//
//	u⁺(j,k) = (rhs(j,k) + Σ K·u(neighbours)) / diag(j,k),
//
// TeaLeaf's simplest solver. Convergence is monitored the way TeaLeaf
// does: the global L1 norm of the update Σ|u⁺−u|, relative to the first
// sweep's value, plus a final true-residual measurement for the Result.
// The sweep reads the 5-point coefficients directly (jacobi2D);
// SolveJacobi3D is its 7-point twin, so every solver kind runs in both
// dimensionalities.
func SolveJacobi(p Problem, o Options) (Result, error) {
	return new(Workspace).Solve(KindJacobi, p, o)
}

// SolveJacobi3D runs the point-Jacobi fixed-point iteration on the
// 7-point operator — the 3D twin of SolveJacobi, completing the solver
// kind × dimensionality matrix:
//
//	u⁺(i,j,k) = (rhs(i,j,k) + Σ K·u(neighbours)) / diag(i,j,k).
//
// Convergence is monitored as in 2D. Like the 2D loop it reads the face
// coefficients directly (jacobi3D), so it lives beside the
// dimension-agnostic Krylov loops rather than inside them.
func SolveJacobi3D(p Problem3D, o Options) (Result, error) {
	return new(Workspace).Solve3D(KindJacobi, p, o)
}

// jacobi2D is SolveJacobi's loop on e, over op's coefficients. The
// previous iterate and the final residual are workspace fields.
func jacobi2D(e *engine[*grid.Field2D, grid.Bounds], op *stencil.Operator2D) (Result, error) {
	o, g, in := e.o, op.Grid, e.in
	u, rhs := e.u, e.rhs
	var result Result

	un := e.sys.Vec(vecW)
	kx, ky := op.Kx.Data, op.Ky.Data
	s := g.Stride()

	var err0 float64
	for it := 0; it < o.MaxIters; it++ {
		if err := e.exchange(1, u); err != nil {
			return result, err
		}
		un.CopyFrom(u)
		e.vectorPass(in)

		ud, nd, bd := u.Data, un.Data, rhs.Data
		localErr := o.Pool.ForReduce(in.Y0, in.Y1, func(k0, k1 int) float64 {
			var sum float64
			for k := k0; k < k1; k++ {
				base := g.Index(0, k)
				for j := in.X0; j < in.X1; j++ {
					i := base + j
					diag := 1 + (ky[i+s] + ky[i]) + (kx[i+1] + kx[i])
					v := (bd[i] +
						ky[i+s]*nd[i+s] + ky[i]*nd[i-s] +
						kx[i+1]*nd[i+1] + kx[i]*nd[i-1]) / diag
					ud[i] = v
					sum += math.Abs(v - nd[i])
				}
			}
			return sum
		})
		e.tr.AddMatvec(in.Cells())
		e.tr.AddDot(in.Cells())
		gerr := e.reduce(localErr)
		result.Iterations++
		if it == 0 {
			err0 = gerr
			if err0 == 0 {
				result.Converged = true
				break
			}
		}
		rel := gerr / err0
		result.History = append(result.History, rel)
		if rel <= o.Tol {
			result.Converged = true
			break
		}
	}

	return jacobiFinish(e, result)
}

// jacobi3D is SolveJacobi3D's loop on e, over op's coefficients.
func jacobi3D(e *engine[*grid.Field3D, grid.Bounds3D], op *stencil.Operator3D) (Result, error) {
	o, g, in := e.o, op.Grid, e.in
	u, rhs := e.u, e.rhs
	var result Result

	un := e.sys.Vec(vecW)
	kx, ky, kz := op.Kx.Data, op.Ky.Data, op.Kz.Data
	sy := g.Index(0, 1, 0) - g.Index(0, 0, 0)
	sz := g.Index(0, 0, 1) - g.Index(0, 0, 0)

	var err0 float64
	for it := 0; it < o.MaxIters; it++ {
		if err := e.exchange(1, u); err != nil {
			return result, err
		}
		un.CopyFrom(u)
		e.vectorPass(in)

		ud, nd, bd := u.Data, un.Data, rhs.Data
		localErr := o.Pool.ForReduce(in.Z0, in.Z1, func(k0, k1 int) float64 {
			var sum float64
			for k := k0; k < k1; k++ {
				for j := in.Y0; j < in.Y1; j++ {
					base := g.Index(0, j, k)
					for i := in.X0; i < in.X1; i++ {
						idx := base + i
						diag := 1 + (kz[idx+sz] + kz[idx]) + (ky[idx+sy] + ky[idx]) + (kx[idx+1] + kx[idx])
						v := (bd[idx] +
							kz[idx+sz]*nd[idx+sz] + kz[idx]*nd[idx-sz] +
							ky[idx+sy]*nd[idx+sy] + ky[idx]*nd[idx-sy] +
							kx[idx+1]*nd[idx+1] + kx[idx]*nd[idx-1]) / diag
						ud[idx] = v
						sum += math.Abs(v - nd[idx])
					}
				}
			}
			return sum
		})
		e.tr.AddMatvec(in.Cells())
		e.tr.AddDot(in.Cells())
		gerr := e.reduce(localErr)
		result.Iterations++
		if it == 0 {
			err0 = gerr
			if err0 == 0 {
				result.Converged = true
				break
			}
		}
		rel := gerr / err0
		result.History = append(result.History, rel)
		if rel <= o.Tol {
			result.Converged = true
			break
		}
	}

	return jacobiFinish(e, result)
}

// jacobiFinish measures the true relative residual for result's report
// (one extra matvec and reduction) into the workspace's r.
func jacobiFinish[F comparable, B any](e *engine[F, B], result Result) (Result, error) {
	rr, err := e.initialResidual(e.u, e.rhs, e.sys.Vec(vecR))
	if err != nil {
		return result, err
	}
	result.FinalResidual = relResidual(rr, e.dot(e.rhs, e.rhs))
	return result, nil
}

package solver

import (
	"math"

	"tealeaf/internal/grid"
)

// SolveJacobi runs the point-Jacobi fixed-point iteration
//
//	u⁺(j,k) = (rhs(j,k) + Σ K·u(neighbours)) / diag(j,k),
//
// TeaLeaf's simplest solver. Convergence is monitored the way TeaLeaf
// does: the global L1 norm of the update Σ|u⁺−u|, relative to the first
// sweep's value, plus a final true-residual measurement for the Result.
// The sweep reads the 5-point coefficients directly (sys2d.JacobiSweep);
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
// Convergence is monitored as in 2D, by the same loop (solveJacobi); the
// sweep reads the face coefficients directly (sys3d.JacobiSweep).
func SolveJacobi3D(p Problem3D, o Options) (Result, error) {
	return new(Workspace).Solve3D(KindJacobi, p, o)
}

// solveJacobi is the one Jacobi loop, SolveJacobi's and SolveJacobi3D's:
// exchange u, copy it to the previous iterate (a workspace field), sweep,
// reduce the update's L1 norm, test. A non-finite norm ends the solve
// with ErrBreakdown at the sweep that made it, as in every other solver.
// Only the per-cell sweep is per dimensionality (system.JacobiSweep).
func solveJacobi[F comparable, B any](e *engine[F, B]) (Result, error) {
	var result Result
	un := e.sys.Vec(vecW)
	var err0 float64
	for it := 0; it < e.o.MaxIters; it++ {
		if err := e.exchange(1, e.u); err != nil {
			return result, err
		}
		e.sys.CopyAll(un, e.u)
		e.vectorPass(e.in)

		localErr := e.sys.JacobiSweep(e.u, un, e.rhs)
		e.tr.AddMatvec(e.cells)
		e.tr.AddDot(e.cells)
		gerr := e.reduce(localErr)
		result.Iterations++
		if !isFinite(gerr) {
			return nonFinite(result, "jacobi", "Σ|u⁺−u|", gerr)
		}
		if it == 0 {
			err0 = gerr
			if err0 == 0 {
				result.Converged = true
				break
			}
		}
		rel := gerr / err0
		result.History = append(result.History, rel)
		if rel <= e.o.Tol {
			result.Converged = true
			break
		}
	}
	return jacobiFinish(e, result)
}

// JacobiSweep is the 5-point Jacobi update over the interior, reading
// the face coefficients directly; each band folds its cells in row order.
func (s *sys2d) JacobiSweep(u, un, rhs *grid.Field2D) float64 {
	g, in := s.op.Grid, s.op.Grid.Interior()
	kx, ky := s.op.Kx.Data, s.op.Ky.Data
	st := g.Stride()
	ud, nd, bd := u.Data, un.Data, rhs.Data
	return s.p.ForReduce(in.Y0, in.Y1, func(k0, k1 int) float64 {
		var sum float64
		for k := k0; k < k1; k++ {
			base := g.Index(0, k)
			for j := in.X0; j < in.X1; j++ {
				i := base + j
				diag := 1 + (ky[i+st] + ky[i]) + (kx[i+1] + kx[i])
				v := (bd[i] +
					ky[i+st]*nd[i+st] + ky[i]*nd[i-st] +
					kx[i+1]*nd[i+1] + kx[i]*nd[i-1]) / diag
				ud[i] = v
				sum += math.Abs(v - nd[i])
			}
		}
		return sum
	})
}

// JacobiSweep is the 7-point Jacobi update over the interior; each band
// of z-planes folds its cells in (k, j, i) order.
func (s *sys3d) JacobiSweep(u, un, rhs *grid.Field3D) float64 {
	g, in := s.op.Grid, s.op.Grid.Interior()
	kx, ky, kz := s.op.Kx.Data, s.op.Ky.Data, s.op.Kz.Data
	sy := g.Index(0, 1, 0) - g.Index(0, 0, 0)
	sz := g.Index(0, 0, 1) - g.Index(0, 0, 0)
	ud, nd, bd := u.Data, un.Data, rhs.Data
	return s.p.ForReduce(in.Z0, in.Z1, func(k0, k1 int) float64 {
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

package solver

import (
	"errors"

	"tealeaf/internal/grid"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// Problem3D is one linear solve A·u = rhs on a rank-local 3D grid with
// the 7-point operator. U holds the initial guess on entry and the
// solution on exit. Like the 2D Problem, the same code runs single-rank
// (comm.Serial) and distributed (a RankComm over a grid.Partition3D):
// every face exchange goes through Communicator.Exchange3D and every
// global scalar through the allreduce family — and since the loop bodies
// in loops.go are dimension-agnostic, "the 3D solver" is nothing more
// than the sys3d backend plus the thin constructors in this package.
type Problem3D struct {
	Op  *stencil.Operator3D
	U   *grid.Field3D
	RHS *grid.Field3D
}

func (o Options) validate3(p Problem3D) error {
	if p.Op == nil || p.U == nil || p.RHS == nil {
		return errors.New("solver: 3D problem needs operator, solution and RHS fields")
	}
	g := p.Op.Grid
	if p.U.Grid != g || p.RHS.Grid != g {
		return errors.New("solver: all 3D problem fields must share the operator's grid")
	}
	return o.validateCommon(g.Halo, o.Precond3D.Name(), 3)
}

// isNone3 reports whether m is the identity preconditioner.
func isNone3(m precond.Preconditioner3D) bool {
	_, ok := m.(precond.None3D)
	return ok
}

// Solve3D dispatches a 3D solve on kind: every solver kind — Jacobi, CG,
// Chebyshev and PPCG — now has a 3D loop, so the kind × dims matrix has
// no holes. It runs on a fresh Workspace.
func Solve3D(kind Kind, p Problem3D, o Options) (Result, error) {
	return new(Workspace).Solve3D(kind, p, o)
}

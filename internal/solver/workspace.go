package solver

import (
	"fmt"

	"tealeaf/internal/grid"
)

// Workspace holds a solver's work fields from one solve to the next, so
// that a run of time steps allocates them once. A field is allocated the
// first time a solve takes its slot, on the operator's grid; every later
// take clears it whole, halos included, so a reused field reads exactly
// what a fresh allocation would, and a solve through a workspace is
// bit-identical to one through fresh fields. A take on another grid
// allocates the slot again.
//
// The zero value is ready to use and holds nothing, so a caller that
// builds one at set-up allocates nothing until its first solve. A
// Workspace serves one solve at a time. Solve, SolveCG and the other
// package-level entry points run on a fresh Workspace of their own.
type Workspace struct {
	f2 [numVecs]*grid.Field2D
	f3 [numVecs]*grid.Field3D
}

// The workspace's slots. Each engine takes its work fields from these,
// and a field an engine no longer reads serves the next as it is:
//
//   - CG takes r, w, p and s, and z for a preconditioner that does not
//     fold (jac_block's explicit z = M⁻¹r, or PPCG's inner solve).
//   - PPCG's outer iteration is CG with the inner Chebyshev solve as M:
//     the inner correction is CG's z, and the inner solve takes the
//     ping-pong directions sd and alt. Its rtemp is CG's w: the step
//     sweep reads w[i] before it writes rtemp[i], and the matvec after
//     the inner solve rewrites w. Unfolded, its M⁻¹·rtemp scratch is
//     alt, which each step's matvec has finished with. CG keeps s = A·p
//     live across the inner solve, so PPCG takes all seven slots.
//   - Chebyshev takes z for its scratch when CG folded the diagonal and
//     left no z behind.
//   - Jacobi takes r for its final residual and w for the previous
//     iterate.
const (
	vecR = iota
	vecW
	vecP
	vecS
	vecZ
	vecSD
	vecAlt
	numVecs
)

// Solve runs the kind of solver on p with the work fields of ws.
func (ws *Workspace) Solve(kind Kind, p Problem, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	e := newEngine[*grid.Field2D, grid.Bounds](newSys2D(p, o, ws), o, p.U, p.RHS)
	return solveKind(kind, e)
}

// Solve3D runs the kind of solver on the 3D problem p with the work
// fields of ws.
func (ws *Workspace) Solve3D(kind Kind, p Problem3D, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate3(p); err != nil {
		return Result{}, err
	}
	e := newEngine[*grid.Field3D, grid.Bounds3D](newSys3D(p, o, ws), o, p.U, p.RHS)
	return solveKind(kind, e)
}

// solveKind runs the loop of kind on e.
func solveKind[F comparable, B any](kind Kind, e *engine[F, B]) (Result, error) {
	if err := e.o.validateKind(kind); err != nil {
		return Result{}, err
	}
	switch kind {
	case KindJacobi:
		return solveJacobi(e)
	case KindCG:
		return solveCG(e, nil, e.o.MaxIters, 0)
	case KindCheby:
		return solveChebyCore(e)
	case KindPPCG:
		return solvePPCGCore(e)
	}
	return Result{}, fmt.Errorf("solver: unknown kind %q", kind)
}

// solveCG runs CG — PPCG's outer iteration when m is its inner solve —
// to the iteration budget maxIters, from the stop baseline base (see
// runCGCore). A deflated solve can meet the tolerance on its recurred
// residual and then fail finishDeflated's re-measure of the true one (the
// coarse projector's roundoff drifts the two apart); while it ends so —
// not converged, not broken down, budget left — CG restarts from the
// corrected iterate with the iterations left. The restart's startup
// takes the same ‖b‖ baseline, so History stays on one scale; Alphas and
// Betas stay the first run's, one Krylov sequence.
func solveCG[F comparable, B any](e *engine[F, B], m *innerCore[F, B], maxIters int, base float64) (Result, error) {
	res, _, err := runCGCore(e, m, maxIters, base)
	for err == nil && e.sys.Deflation() != nil && !res.Converged && !res.Breakdown && res.Iterations < maxIters {
		var more Result
		more, _, err = runCGCore(e, m, maxIters-res.Iterations, base)
		res.Iterations += more.Iterations
		res.History = append(res.History, more.History...)
		res.Converged, res.Breakdown, res.FinalResidual = more.Converged, more.Breakdown, more.FinalResidual
	}
	return res, err
}

// vec2 takes slot's field on grid g.
func (ws *Workspace) vec2(slot int, g *grid.Grid2D) *grid.Field2D {
	f := ws.f2[slot]
	if f == nil || f.Grid != g {
		f = grid.NewField2D(g)
		ws.f2[slot] = f
		return f
	}
	clear(f.Data)
	return f
}

// vec3 takes slot's field on the 3D grid g.
func (ws *Workspace) vec3(slot int, g *grid.Grid3D) *grid.Field3D {
	f := ws.f3[slot]
	if f == nil || f.Grid != g {
		f = grid.NewField3D(g)
		ws.f3[slot] = f
		return f
	}
	clear(f.Data)
	return f
}

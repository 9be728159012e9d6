package solver

import "tealeaf/internal/grid"

// SolveCG runs (preconditioned) conjugate gradients. With the default
// identity preconditioner this is the paper's baseline "CG - 1"
// configuration. CG has one engine, for every preconditioner: the
// iteration is restructured Chronopoulos–Gear style so that one
// reduction round carries every dot product (§VII), instead of the
// textbook loop's two to three rounds, whose log(P) latency dominates
// strong scaling (§III-A). A diagonal preconditioner is folded into the
// sweeps and the whole iteration is one pass over the grid (two sweeps
// beside a depth-1 rank neighbour); a block preconditioner (jac_block)
// applies z = M⁻¹r explicitly, in six sweeps and still one round.
//
// With Options.Deflation set the loop runs deflated CG: the iteration
// operates on the projected operator P·A with the coarse subdomain modes
// removed from the spectrum, and coarse corrections before and after the
// loop recover them exactly (see internal/deflate). The projection is
// fully distributed and rides the iteration's one pass and one reduction
// round: the restriction inside the matvec, the coarse residual inside
// the scalar round, the correction inside the next step.
//
// The iteration body itself lives in loops.go (runCGCore) and is shared
// verbatim with SolveCG3D.
func SolveCG(p Problem, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	e := newEngine[*grid.Field2D, grid.Bounds](newSys2D(p, o), o, p.U, p.RHS)
	res, _, err := runCGCore(e, o.MaxIters, o.Tol)
	return res, err
}

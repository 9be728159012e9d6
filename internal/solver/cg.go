package solver

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
	return new(Workspace).Solve(KindCG, p, o)
}

// SolveCG3D runs (preconditioned) conjugate gradients on a 3D problem:
// the same runCGCore loop as the 2D SolveCG, over the sys3d backend. It
// runs identically single-rank (reflective physical boundaries) and
// distributed over a grid.Partition3D (face exchanges through the
// communicator).
func SolveCG3D(p Problem3D, o Options) (Result, error) {
	return new(Workspace).Solve3D(KindCG, p, o)
}

package solver

// SolvePPCG runs the paper's headline solver: CG preconditioned by a
// shifted and scaled Chebyshev polynomial (CPPCG, §III), with the
// matrix-powers kernel (§IV-C2) at HaloDepth > 1. The outer iteration is
// the one CG engine (runCGCore, one reduction round per iteration) with
// the inner Chebyshev smoothing as its preconditioner; solvePPCGCore in
// loops.go sets it up and is shared verbatim with SolvePPCG3D.
//
// With Options.Deflation set, the outer iteration (and its CG bootstrap)
// runs on the projected operator P·A, composing the §VII coarse-space
// projector with the polynomial preconditioner: deflation removes the
// lowest subdomain modes, the Chebyshev inner steps smooth the rest.
func SolvePPCG(p Problem, o Options) (Result, error) {
	return new(Workspace).Solve(KindPPCG, p, o)
}

// SolvePPCG3D runs the paper's headline solver on a 3D problem: the same
// solvePPCGCore loop as the 2D SolvePPCG — the CG engine's outer
// iteration, reduction-free inner Chebyshev smoothing with 3D matrix-powers
// blocks at HaloDepth > 1 — over the sys3d backend. Options.Deflation3D composes
// the coarse-space projector exactly as Options.Deflation does in 2D.
func SolvePPCG3D(p Problem3D, o Options) (Result, error) {
	return new(Workspace).Solve3D(KindPPCG, p, o)
}

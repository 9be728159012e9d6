package solver

// SolveChebyshev runs the stand-alone Chebyshev iteration: EigenCGIters
// of CG estimate the extremal eigenvalues (§III-D), then the main loop
//
//	u ← u + p,  r ← r − A·p,  p ← α_k·p + β_k·M⁻¹r
//
// performs no global reductions at all — only halo exchanges — except for
// a convergence check every CheckEvery iterations; that communication
// profile is why Chebyshev (and its use as the CPPCG preconditioner)
// scales so well. A residual-growth guard re-bootstraps automatically
// when the eigenvalue estimate proves divergent; see solveChebyCore in
// loops.go, which this constructor shares verbatim with SolveCheby3D.
func SolveChebyshev(p Problem, o Options) (Result, error) {
	return new(Workspace).Solve(KindCheby, p, o)
}

// SolveCheby3D runs the stand-alone Chebyshev iteration on a 3D problem:
// the same solveChebyCore loop as the 2D SolveChebyshev — bootstrap,
// reduction-free main loop, periodic checks, and the residual-growth
// re-bootstrap guard — over the sys3d backend.
func SolveCheby3D(p Problem3D, o Options) (Result, error) {
	return new(Workspace).Solve3D(KindCheby, p, o)
}

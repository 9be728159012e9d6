package solver

import (
	"tealeaf/internal/comm"
	"tealeaf/internal/stats"
)

// This file defines the dimension-agnostic solver core. The CG, Chebyshev
// and PPCG single-reduction loops in loops.go are written exactly once,
// against the system interface below; sys2d.go and sys3d.go back it with
// the existing 2D and 3D kernels, operators and exchange paths. The
// per-dimension Solve* entry points are thin constructors: they build a
// system and an engine and hand control to the shared loops, so a solver
// bugfix or a new iteration variant lands in one place and serves both
// dimensionalities (the Chebyshev tail-check fix in PR 2 had to be made
// twice; its successors will not).

// system abstracts one dimensionality's execution backend: vector
// allocation, the stencil operator (plain, fused-dot and folded-
// preconditioner forms), the BLAS1 and fused update kernels, the
// configured preconditioner, halo exchange, and the matrix-powers
// schedule. F is the field type (*grid.Field2D or *grid.Field3D) and B
// the bounds type (grid.Bounds or grid.Bounds3D).
//
// All kernel methods are rank-local and trace-free: the engine wraps them
// with stats.Trace accounting and global reductions, so the loops never
// touch a dimension-specific type.
type system[F comparable, B any] interface {
	// NewVec allocates a zeroed field on the operator's grid.
	NewVec() F
	// Interior returns the rank-local interior bounds.
	Interior() B
	// GridHalo returns the allocated halo depth of the grid.
	GridHalo() int
	// Cells counts the cells of a bounds value.
	Cells(b B) int

	// Exchange refreshes halos to the given depth through the communicator.
	Exchange(depth int, fields ...F) error
	// NewPowers builds the matrix-powers exchange schedule for the given
	// depth, with adjacency taken from the communicator's physical sides.
	NewPowers(depth int) (powersSched[B], error)
	// Extend returns the interior expanded by n cells on every side with a
	// rank neighbour (physical sides never extend: their halos are
	// zero-flux mirrors, not data) — the matrix-powers extended bounds the
	// deep-halo CG cycles sweep. n <= 0 returns the interior.
	Extend(n int) B

	// Residual computes r = rhs − A·u over b.
	Residual(b B, u, rhs, r F)
	// Apply computes w = A·p over b.
	Apply(b B, p, w F)
	// ApplyDot fuses w = A·p with the local p·w dot.
	ApplyDot(b B, p, w F) float64
	// ApplyPreDot computes w = A·(minv⊙r) with the local (minv⊙r)·w dot
	// (zero minv = identity).
	ApplyPreDot(b B, minv, r, w F) float64
	// ApplyPreDotInit is the fused-CG startup sweep: w = A·(minv⊙r) with
	// the local γ = r·(minv⊙r), δ = (minv⊙r)·w and ‖r‖² scalars.
	ApplyPreDotInit(b B, minv, r, w F) (gamma, delta, rr float64)

	// Dot computes the local x·y over b.
	Dot(b B, x, y F) float64
	// Dot2 computes the local (x·y, y·z) pair in one sweep.
	Dot2(b B, x, y, z F) (xy, yz float64)
	// Axpy computes y += alpha·x over b.
	Axpy(b B, alpha float64, x, y F)
	// Xpay computes y = x + beta·y over b.
	Xpay(b B, x F, beta float64, y F)
	// Copy copies src to dst over b.
	Copy(b B, dst, src F)
	// CopyAll copies the whole field including halos.
	CopyAll(dst, src F)
	// ScaleTo computes dst = alpha·src over b.
	ScaleTo(b B, alpha float64, src, dst F)
	// AxpyAxpy fuses y1 += a1·x1 and y2 += a2·x2 into one sweep.
	AxpyAxpy(b B, a1 float64, x1, y1 F, a2 float64, x2, y2 F)
	// AxpbyPre computes y = a·y + beta·(minv⊙r) (zero minv = identity).
	AxpbyPre(b B, a float64, y F, beta float64, minv, r F)
	// FusedCGStep is the whole vector phase of a fused-CG iteration in one
	// sweep: p = (minv⊙r) + β·p with x += α·p, then s = w + β·s with
	// r −= α·s, returning the local γ' = r·(minv⊙r) and ‖r‖² of the
	// updated r. A zero x skips the solution update (extension rings).
	FusedCGStep(b B, minv, r, w F, beta, alpha float64, p, s, x F) (gamma, rr float64)
	// CGIter is a whole fused-CG iteration body in ONE pass over the grid
	// (stencil.Operator2D.CGIter): the FusedCGStep vector step over sb —
	// p, x and the dots on the interior only, s and r on all of sb — with
	// the matvec w = A·(minv⊙r) and its local δ over mb one row behind it.
	// mirror writes r's depth-1 reflection on the physical sides as rows
	// are stepped, so no exchange is needed between the halves. With a
	// deflator that supports it, w's interior rows go to the projector's
	// restriction inside the pass, and restricted reports that
	// ProjectWRestricted must follow instead of ProjectWBounds.
	CGIter(sb, mb B, mirror bool, minv, r, w F, beta, alpha float64, p, s, x F) (gamma, rr, delta float64, restricted bool)
	// ChebySteps runs the Chebyshev steps of one matrix-powers block in ONE
	// pass over the grid, step j over bs[j] with alphas[j], betas[j]: the
	// matvec folded into the update that consumes it, rtemp −= A·sdOld,
	// sdNew = α·sdOld + β·(minv⊙rtemp), then acc += sdNew (PPCG's
	// correction) on the cells of bs[j] inside in. The direction ping-pongs
	// between sd and alt — step j reads sd for even j, alt for odd j, one
	// cell beyond bs[j], and writes the other — and a temporal wavefront
	// orders the steps row by row (stencil.Operator2D.ChebySteps), so every
	// field ends as if each step had been its own sweep.
	ChebySteps(bs []B, in B, alphas, betas []float64, sd, alt, rtemp, minv, acc F)
	// PPCGInnerInit sets PPCG's inner solve up in one pointwise sweep over
	// b: u += α·p and r −= α·w (skipped for a zero p), then rtemp = r,
	// sd = θ⁻¹·(minv⊙r), z = sd.
	PPCGInnerInit(b B, alpha float64, p, w, u, r, rtemp F, thetaInv float64, minv, sd, z F)

	// PrecondApply applies the configured preconditioner z = M⁻¹r over b.
	PrecondApply(b B, r, z F)
	// PrecondIsIdentity reports whether the configured preconditioner is
	// the identity (its applications are free and untraced).
	PrecondIsIdentity() bool
	// FoldableDiag returns the inverse-diagonal field to fold into fused
	// sweeps and whether folding is possible (zero field = identity).
	FoldableDiag() (F, bool)

	// Deflation returns the configured outer deflation projector, or nil.
	Deflation() deflator[F, B]
}

// powersSched is the matrix-powers exchange schedule (halo.Schedule and
// halo.Schedule3D both satisfy it for their bounds type).
type powersSched[B any] interface {
	Depth() int
	Next() (B, bool)
	Refill()
}

// deflator is the outer deflation projector the CG and PPCG loops compose
// with (§VII future work) — the method set of the user-facing
// Deflator/Deflator3D, whose doc states the contract, so Options.Deflation
// and Options.Deflation3D satisfy it directly. ProjectWBounds writes the
// correction over b ⊇ interior so a matrix-powers cycle keeps w = P·A·u'
// valid wherever later redundant sweeps read it.
type deflator[F any, B any] interface {
	CoarseCorrect(r, u F)
	ProjectWBounds(b B, w, minv, x F) float64
}

// restrictedDeflator is a deflator whose restriction CGIter took inside
// its pass (system.CGIter reports when it did).
type restrictedDeflator[F any, B any] interface {
	ProjectWRestricted(b B, w, minv, x F) float64
}

// isZeroF reports whether f is the zero value of its type (a nil field
// pointer: the identity preconditioner in folded form).
func isZeroF[F comparable](f F) bool {
	var zero F
	return f == zero
}

// engine bundles a system with the per-solve execution context — the
// communicator, its trace, and the solve options — and provides the
// traced, globally-reduced operations the loops are written against.
// It is the dimension-agnostic successor of the old env/env3 pair.
type engine[F comparable, B any] struct {
	sys   system[F, B]
	o     Options
	c     comm.Communicator
	tr    *stats.Trace
	in    B
	cells int
	// u holds the initial guess on entry and the solution on exit; rhs is
	// the right-hand side. Both live on the system's grid.
	u, rhs F
}

func newEngine[F comparable, B any](sys system[F, B], o Options, u, rhs F) *engine[F, B] {
	in := sys.Interior()
	return &engine[F, B]{
		sys: sys, o: o, c: o.Comm, tr: o.Comm.Trace(),
		in: in, cells: sys.Cells(in), u: u, rhs: rhs,
	}
}

// exchange refreshes halos through the communicator.
func (e *engine[F, B]) exchange(depth int, fields ...F) error {
	return e.sys.Exchange(depth, fields...)
}

// dot computes a globally reduced dot product over the interior.
func (e *engine[F, B]) dot(x, y F) float64 {
	e.tr.AddDot(e.cells)
	return e.c.AllReduceSum(e.sys.Dot(e.in, x, y))
}

// dotPair computes (r·z, r·r) in a single grid sweep and a single
// reduction round, the fused form of the ρ/‖r‖ pair every PCG iteration
// needs.
func (e *engine[F, B]) dotPair(z, r F) (rz, rr float64) {
	e.tr.AddDot(e.cells)
	return e.c.AllReduceSum2(e.sys.Dot2(e.in, z, r, r))
}

// reduce performs one globally reduced scalar sum. The round itself is
// counted by the communicator's trace; funneling it through the engine
// keeps the iteration loops off the raw Communicator (the tracerounds
// analyzer enforces this).
func (e *engine[F, B]) reduce(x float64) float64 {
	return e.c.AllReduceSum(x)
}

// reduceN sums a small vector of scalars in one reduction round — the
// single-reduction fusion the paper's CG variants are built on.
func (e *engine[F, B]) reduceN(vals []float64) []float64 {
	return e.c.AllReduceSumN(vals)
}

// matvec applies w = A·p over b and traces it.
func (e *engine[F, B]) matvec(b B, p, w F) {
	e.sys.Apply(b, p, w)
	e.tr.AddMatvec(e.sys.Cells(b))
}

// chebySteps runs one matrix-powers block of Chebyshev steps in one pass
// (system.ChebySteps, accumulating over the interior) and traces each
// step as the stencil sweep it computes: one matvec over that step's
// bounds, no vector pass.
func (e *engine[F, B]) chebySteps(bs []B, alphas, betas []float64, sd, alt, rtemp, minv, acc F) {
	e.sys.ChebySteps(bs, e.in, alphas, betas, sd, alt, rtemp, minv, acc)
	for _, b := range bs {
		e.tr.AddMatvec(e.sys.Cells(b))
	}
}

// matvecDot fuses w = A·p with the global pw reduction (Listing 1).
func (e *engine[F, B]) matvecDot(b B, p, w F) float64 {
	local := e.sys.ApplyDot(b, p, w)
	e.tr.AddMatvec(e.sys.Cells(b))
	e.tr.AddDot(e.sys.Cells(b))
	return e.c.AllReduceSum(local)
}

// cgIter runs a fused-CG iteration body as one pass (system.CGIter,
// x = the solution) and traces the work it does as the two sweeps it
// replaced, which is what the trace counts: a vector pass over the step
// bounds sb and a matvec over mb. restricted is CGIter's.
func (e *engine[F, B]) cgIter(sb, mb B, mirror bool, minv, r, w F, beta, alpha float64, p, s F) (gamma, rr, delta float64, restricted bool) {
	gamma, rr, delta, restricted = e.sys.CGIter(sb, mb, mirror, minv, r, w, beta, alpha, p, s, e.u)
	e.vectorPass(sb)
	e.tr.AddMatvec(e.sys.Cells(mb))
	return gamma, rr, delta, restricted
}

// precondMatvec is the explicit-z half of a CG iteration for a
// preconditioner that does not fold into the sweeps: z = M⁻¹r, a depth-1
// exchange of z, w = A·z with the local δ = z·w from the same sweep, and
// one dot sweep for the local γ = r·z and ‖r‖², all three for the
// iteration's one reduction round.
func (e *engine[F, B]) precondMatvec(r, z, w F) (gamma, rr, delta float64, err error) {
	e.applyPrecond(e.in, r, z)
	if err := e.exchange(1, z); err != nil {
		return 0, 0, 0, err
	}
	delta = e.sys.ApplyDot(e.in, z, w)
	e.tr.AddMatvec(e.cells)
	gamma, rr = e.sys.Dot2(e.in, z, r, r)
	e.tr.AddDot(e.cells)
	return gamma, rr, delta, nil
}

// projectW applies the deflation projection w ← P·w over b ⊇ interior and
// returns the local curvature partial (minv⊙x)·(P·w) over the interior,
// tracing the two sweeps a projection runs: the read-only restriction of
// the interior and the flux correction's read-modify-write of b (the dot
// rides the correction and is not a sweep of its own).
func (e *engine[F, B]) projectW(defl deflator[F, B], b B, w, minv, x F) float64 {
	e.tr.AddDot(e.cells)
	e.tr.AddVectorPass(e.sys.Cells(b))
	return defl.ProjectWBounds(b, w, minv, x)
}

// projectWRestricted is projectW after a CGIter pass that took the
// restriction's row sums: the restriction is no longer a sweep of its own
// (it read each row of w while the matvec had it in cache), so only the
// correction is traced.
func (e *engine[F, B]) projectWRestricted(defl deflator[F, B], b B, w, minv, x F) float64 {
	e.tr.AddVectorPass(e.sys.Cells(b))
	return defl.(restrictedDeflator[F, B]).ProjectWRestricted(b, w, minv, x)
}

// initialResidual exchanges u, computes r = rhs − A·u on the interior and
// returns the globally reduced ‖r‖².
func (e *engine[F, B]) initialResidual(u, rhs, r F) (float64, error) {
	if err := e.exchange(1, u); err != nil {
		return 0, err
	}
	e.sys.Residual(e.in, u, rhs, r)
	e.tr.AddMatvec(e.cells)
	return e.dot(r, r), nil
}

// applyPrecond applies z = M⁻¹r over b with tracing (identity
// applications with r == z are free and untraced).
func (e *engine[F, B]) applyPrecond(b B, r, z F) {
	e.sys.PrecondApply(b, r, z)
	if !e.sys.PrecondIsIdentity() {
		e.tr.AddPrecond(e.sys.Cells(b))
	}
}

// vectorPass traces one BLAS1-style sweep over b.
func (e *engine[F, B]) vectorPass(b B) {
	e.tr.AddVectorPass(e.sys.Cells(b))
}

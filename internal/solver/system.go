package solver

import (
	"tealeaf/internal/comm"
	"tealeaf/internal/stats"
)

// This file defines the dimension-agnostic solver core. The CG, Chebyshev
// and PPCG loops in loops.go are written exactly once, against the
// system interface below; sys2d.go and sys3d.go back it with
// the existing 2D and 3D kernels, operators and exchange paths. The
// per-dimension Solve* entry points are thin constructors: they build a
// system and an engine and hand control to the shared loops, so a solver
// bugfix or a new iteration variant lands in one place and serves both
// dimensionalities (the Chebyshev tail-check fix in PR 2 had to be made
// twice; its successors will not).

// system abstracts one dimensionality's execution backend: the work
// fields, the stencil operator (plain, fused-dot and folded-
// preconditioner forms), the BLAS1 and fused update kernels, the
// configured preconditioner, halo exchange, and the matrix-powers
// schedule. F is the field type (*grid.Field2D or *grid.Field3D) and B
// the bounds type (grid.Bounds or grid.Bounds3D).
//
// All kernel methods are rank-local and trace-free: the engine wraps them
// with stats.Trace accounting and global reductions, so the loops never
// touch a dimension-specific type.
type system[F comparable, B any] interface {
	// Vec takes the solve's work field for a workspace slot (vecR, …):
	// zeroed whole, on the operator's grid (Workspace).
	Vec(slot int) F
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
	// Alone reports whether every side of the rank-local grid is physical:
	// no rank neighbour, so no halo of it is ever another rank's data.
	Alone() bool

	// Residual computes r = rhs − A·u over b.
	Residual(b B, u, rhs, r F)
	// Apply computes w = A·p over b.
	Apply(b B, p, w F)
	// ApplyDot fuses w = A·p with the local p·w dot, taking the
	// restriction of w's rows when d.restrict is set (b the interior).
	ApplyDot(b B, p, w F, d deflRows) float64
	// ApplyPreDot computes w = A·(minv⊙r) with the local (minv⊙r)·w dot
	// (zero minv = identity), restricting w as ApplyDot does.
	ApplyPreDot(b B, minv, r, w F, d deflRows) float64
	// ApplyPreDotInit is the fused-CG startup sweep: w = A·(minv⊙r) with
	// the local γ = r·(minv⊙r), δ = (minv⊙r)·w and ‖r‖² scalars,
	// restricting w as ApplyDot does.
	ApplyPreDotInit(b B, minv, r, w F, d deflRows) (gamma, delta, rr float64)

	// Dot computes the local x·y over b.
	Dot(b B, x, y F) float64
	// Dot2 computes the local (x·y, y·z) pair in one sweep.
	Dot2(b B, x, y, z F) (xy, yz float64)
	// Axpy computes y += alpha·x over b.
	Axpy(b B, alpha float64, x, y F)
	// Xpay computes y = x + beta·y over b; with d.correct set, x is the
	// CG engine's w and each of its rows takes the pending deflation
	// correction just before it is read.
	Xpay(b B, x F, beta float64, y F, d deflRows)
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
	// updated r. With d.correct set each row of w takes the pending deflation
	// correction just before the step reads it.
	FusedCGStep(b B, minv, r, w F, beta, alpha float64, p, s, x F, d deflRows) (gamma, rr float64)
	// CGIter is a whole fused-CG iteration body in ONE pass over the
	// interior (stencil.Operator2D.CGIter): the FusedCGStep vector step
	// with the matvec w = A·(minv⊙r) and its local δ one row behind it.
	// The pass writes r's depth-1 reflection on every side as rows are
	// stepped: it is the iteration of a rank with no neighbour (Alone),
	// which needs no exchange between the halves. d's correction rides the
	// step's rows and its restriction the matvec's.
	CGIter(minv, r, w F, beta, alpha float64, p, s, x F, d deflRows) (gamma, rr, delta float64)
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
	// PPCGStep is the CG engine's explicit-z step and the set-up of PPCG's
	// inner solve in one pointwise sweep over b: p = z + β·p, u += α·p,
	// s = w + β·s, r −= α·s (skipped for a zero p), then rtemp = r into
	// w, sd = θ⁻¹·(minv⊙r), z = sd. With d.correct set each row of w takes
	// the pending deflation correction just before it is read.
	PPCGStep(b B, beta, alpha float64, p, s, u, z, w, r F, thetaInv float64, minv, sd F, d deflRows)

	// JacobiSweep is the point-Jacobi update u = (rhs + Σ K·un(nbrs))/diag
	// over the interior, reading the face coefficients directly, and
	// returns the local Σ|u − un|.
	JacobiSweep(u, un, rhs F) float64

	// PrecondApply applies the configured preconditioner z = M⁻¹r over b.
	PrecondApply(b B, r, z F)
	// PrecondIsIdentity reports whether the configured preconditioner is
	// the identity (its applications are free and untraced).
	PrecondIsIdentity() bool
	// FoldableDiag returns the inverse-diagonal field to fold into fused
	// sweeps and whether folding is possible (zero field = identity).
	FoldableDiag() (F, bool)

	// Deflation returns the configured outer deflation projector, or nil.
	Deflation() deflator[F]
}

// powersSched is the matrix-powers exchange schedule (halo.Schedule and
// halo.Schedule3D both satisfy it for their bounds type).
type powersSched[B any] interface {
	Depth() int
	Next() (B, bool)
	Refill()
}

// deflator is the outer deflation projector the CG engine composes with
// (§VII future work): the dimension-free part of the user-facing
// Deflator/Deflator3D, whose doc states the contract, so
// Options.Deflation and Options.Deflation3D satisfy it directly. Their
// per-row methods (RestrictRow, CorrectRow) ride the sweeps inside the
// system, which deflRows switches on.
type deflator[F any] interface {
	CoarseCorrect(r, u F)
	Restriction() []float64
	SolveCoarse(b []float64) float64
}

// deflRows says what a sweep does for the deflation projector as it
// passes the rows of the CG engine's w (the zero value: nothing).
// correct: the sweep that first reads w applies the pending correction
// w −= A·W·λ to each interior row just before reading it (the step: CG's
// fused one, the explicit-z s = w + β·s, or PPCG's). restrict: the
// matvec hands each interior row of the new w to the restriction once it
// is final. A sweep honours the half that applies to it.
type deflRows struct{ correct, restrict bool }

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
	// red is reduceCG's buffer: the scalars and, deflated, one value per
	// coarse block, every iteration.
	red []float64
	// xf is exchange's field list, refilled call after call: a caller's
	// variadic slice passed on through the system's interface call would
	// escape, and be allocated at every exchange.
	xf []F
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
	e.xf = append(e.xf[:0], fields...)
	return e.sys.Exchange(depth, e.xf...)
}

// dot computes a globally reduced dot product over the interior.
func (e *engine[F, B]) dot(x, y F) float64 {
	e.tr.AddDot(e.cells)
	return e.c.AllReduceSum(e.sys.Dot(e.in, x, y))
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

// cgIter runs a fused-CG iteration body as one pass (system.CGIter,
// x = the solution) and traces the work it does as the two sweeps it
// replaced, which is what the trace counts: a vector pass and a matvec
// over the interior.
func (e *engine[F, B]) cgIter(minv, r, w F, beta, alpha float64, p, s F, d deflRows) (gamma, rr, delta float64) {
	gamma, rr, delta = e.sys.CGIter(minv, r, w, beta, alpha, p, s, e.u, d)
	e.vectorPass(e.in)
	e.tr.AddMatvec(e.cells)
	return gamma, rr, delta
}

// precondMatvec is a CG iteration with an explicit z, for a
// preconditioner that does not fold into the sweeps: the step st (nil at
// startup), z = M⁻¹r — PPCG's inner solve m, which runs st itself, or
// the configured preconditioner when m is nil — a depth-1 exchange of z,
// w = A·z with the local δ = z·w from the same sweep (and d's
// restriction of w), and one dot sweep for the local γ = r·z and ‖r‖²,
// all three for the iteration's one reduction round.
func (e *engine[F, B]) precondMatvec(m *innerCore[F, B], st *cgStep[F], r, z, w F, d deflRows) (gamma, rr, delta float64, err error) {
	if m != nil {
		if err := m.apply(st, r, z, w); err != nil {
			return 0, 0, 0, err
		}
	} else {
		if st != nil {
			e.step(st, z, w, r)
		}
		e.applyPrecond(e.in, r, z)
	}
	if err := e.exchange(1, z); err != nil {
		return 0, 0, 0, err
	}
	delta = e.sys.ApplyDot(e.in, z, w, d)
	e.tr.AddMatvec(e.cells)
	gamma, rr = e.sys.Dot2(e.in, z, r, r)
	e.tr.AddDot(e.cells)
	return gamma, rr, delta, nil
}

// step runs st as three vector sweeps: p = z + β·p, then s = w + β·s
// with st.d's pending correction applied to w's rows first, then
// x += α·p and r −= α·s.
func (e *engine[F, B]) step(st *cgStep[F], z, w, r F) {
	e.sys.Xpay(e.in, z, st.beta, st.p, deflRows{})
	e.sys.Xpay(e.in, w, st.beta, st.s, st.d)
	e.sys.AxpyAxpy(e.in, st.alpha, st.p, e.u, -st.alpha, st.s, r)
	e.vectorPass(e.in)
	e.vectorPass(e.in)
	e.vectorPass(e.in)
}

// reduceCG sums a CG iteration's local (γ, rr, δ) in ONE reduction
// round. With a deflator the round also carries the local restriction
// b = Wᵀ·w the iteration's matvec took; every rank then solves E·λ = b
// from the same sums and returns the projected curvature
// z·(P·w) = δ − bᵀλ in δ's place (deflator.SolveCoarse), leaving the
// correction w −= A·W·λ pending for the next sweep that reads w.
func (e *engine[F, B]) reduceCG(defl deflator[F], gamma, rr, delta float64) (float64, float64, float64) {
	e.red = append(e.red[:0], gamma, rr, delta)
	if defl != nil {
		e.red = append(e.red, defl.Restriction()...)
	}
	s := e.reduceN(e.red)
	if defl != nil {
		s[2] -= defl.SolveCoarse(s[3:])
	}
	return s[0], s[1], s[2]
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

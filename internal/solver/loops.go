package solver

import (
	"fmt"
	"math"

	"tealeaf/internal/cheby"
	"tealeaf/internal/eigen"
)

// This file holds the one and only implementation of each solver
// iteration body. Every loop is generic over the system abstraction
// (system.go), so the 2D and 3D entry points share it verbatim — there
// are no per-dimension copies of the CG, Chebyshev or PPCG loops.

// cgState is the live state runCGCore leaves behind so Chebyshev/PPCG can
// continue from the bootstrap phase without recomputing the residual.
type cgState[F comparable] struct {
	r, z, w, pvec F
	rz, rr, rr0   float64
	// base is the squared baseline the relative stop test divides by:
	// rr0 on the plain paths, max(rr0, ‖b‖²) on deflated solves (see
	// deflStopBaseSq). Continuation loops must reuse it so bootstrap and
	// outer iteration measure convergence against the same denominator.
	base float64
}

// runCGCore dispatches to the pipelined engine (Options.Pipelined), the
// fused single-reduction engine, or the classic multi-pass engine. All
// three record the (α, β) scalars and return the final state for solvers
// that continue the run.
//
// Folding a diagonal preconditioner needs minv valid one cell beyond the
// interior. The Jacobi constructors can only evaluate the matrix diagonal
// on the padded region minus its outermost layer, so on a halo-1 grid the
// ring the fused matvec reads is exactly that missing layer. Single-rank
// that is harmless (physical-boundary face coefficients are zero, so the
// ring is multiplied away), but across rank boundaries the coupling is
// real — fall back to the classic loop rather than silently dropping it.
// Deflated solves run on either engine: the projection is applied to the
// matvec result, at the cost of one extra reduction round per iteration.
func runCGCore[F comparable, B any](e *engine[F, B], maxIters int, tol float64) (Result, *cgState[F], error) {
	if e.o.Pipelined || !e.o.DisableFused {
		if minv, ok := e.sys.FoldableDiag(); ok {
			if isZeroF(minv) || e.c.Size() == 1 || e.sys.GridHalo() >= 2 {
				if e.o.Pipelined {
					return runCGPipelinedCore(e, minv, maxIters, tol)
				}
				return runCGFusedCore(e, minv, maxIters, tol)
			}
		}
	}
	return runCGClassicCore(e, maxIters, tol)
}

// startupBaseSq decides a solve's convergence baseline (the squared norm
// the relative stop test divides by) from the initial squared residual
// rr0, and whether the solve is already done at startup.
//
// The r₀-relative criterion is unreachable when r₀ itself is numerical
// noise: on a near-steady step — e.g. a uniform deck whose exact r₀ is
// zero and whose computed r₀ is pure stencil roundoff, ~ε·‖A‖·‖u‖ — the
// target tol·‖r₀‖ sits far below the attainable-accuracy floor, and the
// iteration random-walks until a curvature or conjugacy guard trips
// (found by the propcheck deck fuzzer). If ‖r₀‖ ≤ 10·tol·‖b‖ the step
// is therefore declared solved outright, reporting the b-relative
// residual; the 10× margin matches the one finishDeflated's re-measured
// residual is allowed.
//
// Every solve that iterates takes the baseline max(‖r₀‖², ‖b‖²) — the
// standard b-relative criterion whenever ‖b‖ > ‖r₀‖, which on a
// diffusion step is the usual case. It was written for deflated solves,
// whose coarse projector re-injects O(ε·‖A‖·‖u‖) absolute roundoff into
// every iterate, putting any target far below ε·‖b‖ out of reach no
// matter where r₀ started; plain solves take it too (the goldens are
// pinned on it). Costs one extra reduction round at startup.
func (e *engine[F, B]) startupBaseSq(rr0, tol float64) (base float64, done bool) {
	bb := e.dot(e.rhs, e.rhs)
	if rr0 <= 100*tol*tol*bb {
		return bb, true
	}
	if bb > rr0 {
		return bb, false
	}
	return rr0, false
}

// finishDeflated applies the final coarse correction of a deflated solve
// and re-measures the true residual, returning the relative residual
// against rr0. It leaves r holding the corrected residual and u the
// corrected solution, so continuation solvers (the PPCG outer loop after
// a deflated bootstrap) resume from a consistent state with Wᵀ·r = 0.
func (e *engine[F, B]) finishDeflated(defl deflator[F, B], r F, rr0 float64) (float64, error) {
	if err := e.exchange(1, e.u); err != nil {
		return 0, err
	}
	e.sys.Residual(e.in, e.u, e.rhs, r)
	e.tr.AddMatvec(e.cells)
	defl.CoarseCorrect(r, e.u)
	rrTrue, err := e.initialResidual(e.u, e.rhs, r)
	if err != nil {
		return 0, err
	}
	return relResidual(rrTrue, rr0), nil
}

// runCGFusedCore is the Chronopoulos–Gear single-reduction PCG engine
// (§VII). Writing u' = M⁻¹r, it maintains p (search direction) and
// s = A·p by recurrence, so each iteration is exactly two grid sweeps
// and one reduction round:
//
//	sweep 1: p = u' + β·p;  x += α·p;
//	         s = w + β·s;   r −= α·s;  γ' = r·u'; rr = r·r   (FusedCGStep)
//	         exchange halo of r
//	sweep 2: w = A·u';  δ = u'·w                            (ApplyPreDot)
//	allreduce {γ', rr, δ} in one round, then
//	β = γ'/γ,  α = γ'/(δ − β·γ'/α)
//
// Sweep 1 is the whole vector phase: each cache-resident row takes the
// direction recurrences and the updates they feed back to back, so p
// and s are never written by one pass and re-streamed by the next (the
// first two bursts of the pipelined engine's step sweep, bit-identical
// to the direction and update sweeps run separately). The diagonal
// preconditioner is folded into the sweeps (u' is never materialised);
// a zero minv is the identity, for which γ == rr. With
// Options.SplitSweeps the exchange overlaps sweep 2's interior pass
// (applyPreDotX).
//
// With a deflator configured the same recurrences run on the projected
// operator P·A: the matvec sweep is followed by the (collective)
// projection, the curvature δ is re-measured against the projected w, and
// coarse corrections before and after the loop recover the deflated
// component exactly. Each iteration then pays two reduction rounds — the
// projector's coarse round plus the scalar round — versus the plain
// loop's one.
//
// With Options.HaloDepth d > 1 the loop runs a matrix-powers cycle
// (§IV-C2), previously exclusive to the PPCG inner solve: one depth-d
// exchange of {r, w, p, s} at the top of each d-iteration cycle replaces
// the per-iteration depth-1 exchange of r. Iteration j of a cycle runs
// its step sweep on the extended bounds ext(d−j) — the interior grown by
// d−j cells toward every rank neighbour — and its matvec on ext(d−1−j),
// so each sweep's inputs are valid exactly one cell beyond its own
// bounds and the halo data ages out one cell per iteration. The step
// covers the interior (with x and the dots) and then each extension
// ring with x skipped and the dots discarded: the extended cells are
// redundant compute replicating the neighbour's interior, and all dots
// stay interior-only in the interior's tile order, so the reduced
// scalars (and hence the iterates) are unchanged from depth 1 — the
// cycle trades ~3·d·halo cells of redundant sweeps for d× fewer
// messages, the same latency-for-bandwidth trade the PPCG inner powers
// schedule makes. Deflated solves join the cycle via ProjectWBounds,
// which maintains w = P·A·u' on the extended bounds, with the
// re-measured curvature δ folded out of the same correction pass.
func runCGFusedCore[F comparable, B any](e *engine[F, B], minv F, maxIters int, tol float64) (Result, *cgState[F], error) {
	sys := e.sys
	in := e.in
	var result Result

	defl := sys.Deflation()

	r := sys.NewVec()
	w := sys.NewVec()
	pvec := sys.NewVec()
	svec := sys.NewVec()
	// The fused loop never materialises z = M⁻¹r. For the identity the
	// continuation state's z aliases r (like the classic path); for a
	// folded preconditioner it stays zero and the Chebyshev continuation
	// allocates its own scratch on demand.
	z := r
	if !isZeroF(minv) {
		var zero F
		z = zero
	}
	base := 0.0 // stop-test baseline, widened from rr0 once it is known
	mkState := func(gamma, rr, rr0 float64) *cgState[F] {
		return &cgState[F]{r: r, z: z, w: w, pvec: pvec, rz: gamma, rr: rr, rr0: rr0, base: base}
	}

	// Startup: r = rhs − A·u, then one fused stencil sweep produces
	// w = A·M⁻¹r with all three startup scalars, reduced in one round.
	if err := e.exchange(1, e.u); err != nil {
		return result, nil, err
	}
	sys.Residual(in, e.u, e.rhs, r)
	e.tr.AddMatvec(e.cells)
	if defl != nil {
		// Initial coarse correction (Wᵀ·r = 0 afterwards, and the
		// projected recurrences keep it so); the residual is rebuilt from
		// the corrected iterate and becomes the convergence baseline.
		defl.CoarseCorrect(r, e.u)
		if err := e.exchange(1, e.u); err != nil {
			return result, nil, err
		}
		sys.Residual(in, e.u, e.rhs, r)
		e.tr.AddMatvec(e.cells)
	}
	if err := e.exchange(1, r); err != nil {
		return result, nil, err
	}
	gamma, delta, rr0 := sys.ApplyPreDotInit(in, minv, r, w)
	e.tr.AddMatvec(e.cells)
	if defl != nil {
		// w = P·A·M⁻¹r; δ must see the projected w.
		delta = e.projectW(defl, in, w, minv, r)
	}
	sums := e.reduceN([]float64{gamma, delta, rr0})
	gamma, delta, rr0 = sums[0], sums[1], sums[2]
	if res, err := cgNonFinite(result, scalar{"‖r‖²", rr0}, scalar{"γ", gamma}, scalar{"δ", delta}); err != nil {
		return res, nil, err
	}
	if rr0 == 0 {
		result.Converged = true
		return result, mkState(0, 0, 0), nil
	}
	var done bool
	base, done = e.startupBaseSq(rr0, tol)
	if done {
		// The initial guess already solves the step to the achievable
		// precision; iterating would only pump roundoff into it. Checked
		// before the curvature guard — a noise-scale residual can
		// legitimately present δ ≤ 0.
		result.Converged = true
		result.FinalResidual = relResidual(rr0, base)
		return result, mkState(gamma, rr0, rr0), nil
	}
	if delta <= 0 {
		// A or M lost positive definiteness at startup; no iteration can
		// proceed — surface it instead of returning a silent residual of 1.
		result.FinalResidual = 1
		result.Breakdown = true
		return result, mkState(gamma, rr0, rr0), fmt.Errorf("solver: startup curvature δ = %v: %w", delta, ErrBreakdown)
	}

	depth := max(e.o.HaloDepth, 1)
	if depth > 1 && !isZeroF(minv) {
		// The folded diagonal is sweep input on the full extended bounds;
		// it never changes during the solve, so one deep exchange suffices.
		if err := e.exchange(depth, minv); err != nil {
			return result, nil, err
		}
	}

	alpha := gamma / delta
	beta := 0.0
	rr := rr0
	for it := 0; it < maxIters; it++ {
		var gammaNew, rrNew, deltaNew float64
		mb := in // matvec bounds: extended on the deep path
		if depth > 1 {
			j := it % depth
			if j == 0 {
				// Cycle top: one deep exchange of every recurrence vector
				// replaces depth per-iteration exchanges of r.
				if err := e.exchange(depth, r, w, pvec, svec); err != nil {
					return result, nil, err
				}
			}
			ab := sys.Extend(depth - j)    // step bounds
			mb = sys.Extend(depth - 1 - j) // one cell inside ab
			// The x update and the dots are interior-only; the extended
			// rings advance p, s and r alone so the next matvec reads a
			// consistent r one cell beyond mb.
			gammaNew, rrNew = sys.FusedCGStep(in, minv, r, w, beta, alpha, pvec, svec, e.u)
			var noX F
			for _, rb := range sys.Rings(ab) {
				sys.FusedCGStep(rb, minv, r, w, beta, alpha, pvec, svec, noX)
			}
			e.vectorPass(ab)
			deltaNew = e.applyPreDotDeep(mb, minv, r, w)
		} else {
			gammaNew, rrNew = sys.FusedCGStep(in, minv, r, w, beta, alpha, pvec, svec, e.u)
			e.vectorPass(in)
			var err error
			deltaNew, err = e.applyPreDotX(minv, r, w)
			if err != nil {
				return result, nil, err
			}
		}
		if defl != nil {
			deltaNew = e.projectW(defl, mb, w, minv, r)
		}
		s := e.reduceN([]float64{gammaNew, rrNew, deltaNew})
		gammaNew, rrNew, deltaNew = s[0], s[1], s[2]
		if res, err := cgNonFinite(result, scalar{"‖r‖²", rrNew}, scalar{"γ", gammaNew}, scalar{"δ", deltaNew}); err != nil {
			return res, nil, err
		}

		result.Alphas = append(result.Alphas, alpha)
		result.Iterations++
		rel := relResidual(rrNew, base)
		result.History = append(result.History, rel)
		if rel <= tol {
			result.Converged = true
			result.FinalResidual = rel
			if defl != nil {
				// Final coarse correction + true-residual re-measure, with
				// the same 10× projection round-off margin as the classic
				// engine.
				rel, err := e.finishDeflated(defl, r, base)
				if err != nil {
					return result, nil, err
				}
				result.FinalResidual = rel
				result.Converged = rel <= 10*tol
			}
			return result, mkState(gammaNew, rrNew, rr0), nil
		}

		betaNew := gammaNew / gamma
		denom := deltaNew - betaNew*gammaNew/alpha
		if denom <= 0 || math.IsNaN(denom) {
			// Breakdown: the three-term recurrences lost conjugacy (or A
			// is numerically semi-definite). Stop like the classic path's
			// pw == 0 guard, and record it.
			result.Breakdown = true
			rr = rrNew
			break
		}
		result.Betas = append(result.Betas, betaNew)
		gamma, rr = gammaNew, rrNew
		beta, alpha = betaNew, gammaNew/denom
	}
	result.FinalResidual = relResidual(rr, base)
	if defl != nil && rr0 > 0 {
		// Iteration budget exhausted (or breakdown): still apply the final
		// coarse correction so the state handed to a continuation solver is
		// consistent, and report the true residual.
		rel, err := e.finishDeflated(defl, r, base)
		if err != nil {
			return result, nil, err
		}
		result.FinalResidual = rel
	}
	return result, mkState(gamma, rr, rr0), nil
}

// runCGPipelinedCore is the pipelined (Ghysels–Vanroose) single-reduction
// PCG engine behind Options.Pipelined. Where the Chronopoulos–Gear fused
// engine coalesces each iteration's reductions into one round, this
// engine removes that round from the critical path entirely: two extra
// recurrences (s tracking A·M⁻¹p and z tracking A·M⁻¹s) shift the matvec
// onto the auxiliary vector n = A·M⁻¹w, whose sweep does not depend on
// the iteration's scalars — so the round is STARTED before the sweep and
// FINISHED after it, hiding the allreduce latency (the scaling bottleneck
// of CG per §III-A) behind a full matvec of local compute. Writing
// u' = M⁻¹r, each iteration is
//
//	start allreduce {γ, δ, rr}            (split-phase, comm.ReduceHandle)
//	exchange halo of w;  n = A·(M⁻¹w)     (overlapped with the round)
//	finish allreduce, then β = γ/γ₋, α = γ/(δ − β·γ/α₋)
//	one sweep (PipelinedCGStep): p = u' + β·p; s = w + β·s; z = n + β·z;
//	    x += α·p; r −= α·s; w −= α·z;  γ = r·u'; δ = u'·w; rr = r·r
//
// — exactly one reduction round per iteration, never serialised against
// compute. The price over the fused engine is two extra vectors (z and
// the n scratch) and one speculative matvec at convergence (the round
// that detects it has already computed the next n); fusing all six
// recurrences into ONE sweep (rather than the textbook direction/update
// pair) keeps the engine's memory traffic at parity with the fused
// engine — see kernels.PipelinedCGStep. With Options.SplitSweeps the
// overlapped matvec additionally splits into interior and boundary-ring
// passes so the w exchange also hides behind compute (applyPreDotX).
//
// With a deflator configured the recurrences run on the projected
// operator P·A: the projection is applied to n strictly AFTER the round
// finishes — the split-phase contract forbids other collectives while a
// reduction is in flight — which preserves the invariants w = P·A·M⁻¹r,
// s = P·A·M⁻¹p and z = P·A·M⁻¹s by induction, at the cost of the
// projector's extra reduction round per iteration (exactly as on the
// fused and classic engines).
//
// With Options.HaloDepth d > 1 the engine runs the same matrix-powers
// cycle as the fused engine: one depth-d exchange of all five recurrence
// vectors per d passes, placed INSIDE the overlap window (after the
// round is posted — exchanges are point-to-point and safe to interleave
// with a split reduction, exactly as applyPreDotX's overlapped exchange
// already is). Pass j of a cycle computes its matvec on ext(d−1−j) and
// then extends ALL five vector recurrences over that same region's rings
// — p, s, z must age in lockstep with r, w because pass j+1's matvec
// reads w one cell beyond its bounds and the recurrences that produced
// that w read the others at the same cell. Dots stay interior-only, so
// the reduced scalars match depth 1.
func runCGPipelinedCore[F comparable, B any](e *engine[F, B], minv F, maxIters int, tol float64) (Result, *cgState[F], error) {
	sys := e.sys
	in := e.in
	var result Result

	defl := sys.Deflation()

	r := sys.NewVec()
	w := sys.NewVec()
	pvec := sys.NewVec()
	svec := sys.NewVec()
	zvec := sys.NewVec() // z = A·M⁻¹s by recurrence
	nvec := sys.NewVec() // n = A·M⁻¹w, the per-iteration matvec target
	// Like the fused engine, z = M⁻¹r is never materialised; the
	// continuation state's z aliases r for the identity.
	z := r
	if !isZeroF(minv) {
		var zero F
		z = zero
	}
	base := 0.0 // stop-test baseline, widened from rr0 once it is known
	mkState := func(gamma, rr, rr0 float64) *cgState[F] {
		return &cgState[F]{r: r, z: z, w: w, pvec: pvec, rz: gamma, rr: rr, rr0: rr0, base: base}
	}

	// Startup: identical to the fused engine — r = rhs − A·u (with the
	// deflated coarse correction if configured), then one fused sweep
	// produces w = A·M⁻¹r and the three local startup scalars. Their
	// reduction is NOT performed here: it becomes the first loop pass's
	// split-phase round, overlapped with the first speculative matvec.
	if err := e.exchange(1, e.u); err != nil {
		return result, nil, err
	}
	sys.Residual(in, e.u, e.rhs, r)
	e.tr.AddMatvec(e.cells)
	if defl != nil {
		defl.CoarseCorrect(r, e.u)
		if err := e.exchange(1, e.u); err != nil {
			return result, nil, err
		}
		sys.Residual(in, e.u, e.rhs, r)
		e.tr.AddMatvec(e.cells)
	}
	if err := e.exchange(1, r); err != nil {
		return result, nil, err
	}
	gamma, delta, rr := sys.ApplyPreDotInit(in, minv, r, w)
	e.tr.AddMatvec(e.cells)
	if defl != nil {
		// w = P·A·M⁻¹r; the startup δ must see the projected w.
		delta = e.projectW(defl, in, w, minv, r)
	}

	depth := max(e.o.HaloDepth, 1)
	if depth > 1 && !isZeroF(minv) {
		// One-time deep refresh of the folded diagonal (sweep input on the
		// full extended bounds, constant across the solve).
		if err := e.exchange(depth, minv); err != nil {
			return result, nil, err
		}
	}

	var alpha, gammaOld, rr0 float64
	mb := in // this pass's matvec bounds (extended on the deep path)
	first := true
	cyc := 0
	for {
		// Loop invariant: gamma, delta and rr hold the LOCAL partials of
		// γ = r·(M⁻¹r), δ = (M⁻¹r)·w and ‖r‖² for the current r, w; the
		// round reducing them overlaps the next Krylov basis extension.
		h := e.reduceNStart([]float64{gamma, delta, rr})
		if depth > 1 {
			j := cyc % depth
			if j == 0 {
				// Cycle top, inside the overlap window: the deep exchange of
				// all five recurrence vectors hides behind the round too.
				if err := e.exchange(depth, r, w, pvec, svec, zvec); err != nil {
					h.Finish()
					return result, nil, err
				}
			}
			mb = sys.Extend(depth - 1 - j)
			sys.ApplyPreDot(mb, minv, w, nvec)
			e.tr.AddMatvec(sys.Cells(mb))
		} else if _, err := e.applyPreDotX(minv, w, nvec); err != nil {
			// Drain the posted round before surfacing the error: the other
			// ranks are already in the butterfly, and the communicator must
			// be quiescent for whatever the caller does next.
			h.Finish()
			return result, nil, err
		}
		cyc++
		sums := h.Finish()
		gamma, delta, rr = sums[0], sums[1], sums[2]
		if res, err := cgNonFinite(result, scalar{"‖r‖²", rr}, scalar{"γ", gamma}, scalar{"δ", delta}); err != nil {
			return res, nil, err
		}

		if first {
			rr0 = rr
			if rr0 == 0 {
				result.Converged = true
				return result, mkState(0, 0, 0), nil
			}
			var done bool
			base, done = e.startupBaseSq(rr0, tol)
			if done {
				// The initial guess already solves the step to the
				// achievable precision; iterating would only pump roundoff
				// into it. Checked before the curvature guard — a
				// noise-scale residual can legitimately present δ ≤ 0.
				result.Converged = true
				result.FinalResidual = relResidual(rr0, base)
				return result, mkState(gamma, rr0, rr0), nil
			}
			if delta <= 0 {
				// A or M lost positive definiteness at startup, exactly as
				// on the fused engine.
				result.FinalResidual = 1
				result.Breakdown = true
				return result, mkState(gamma, rr0, rr0), fmt.Errorf("solver: startup curvature δ = %v: %w", delta, ErrBreakdown)
			}
		} else {
			result.Alphas = append(result.Alphas, alpha)
			result.Iterations++
			rel := relResidual(rr, base)
			result.History = append(result.History, rel)
			if rel <= tol {
				result.Converged = true
				result.FinalResidual = rel
				if defl != nil {
					rel, err := e.finishDeflated(defl, r, base)
					if err != nil {
						return result, nil, err
					}
					result.FinalResidual = rel
					result.Converged = rel <= 10*tol
				}
				return result, mkState(gamma, rr, rr0), nil
			}
		}
		if result.Iterations >= maxIters {
			break
		}
		if defl != nil {
			// n = P·A·M⁻¹w, strictly after Finish (the coarse round is a
			// collective). No dot: the step sweep re-measures the curvature.
			var zero F
			e.projectW(defl, mb, nvec, zero, zero)
		}
		var beta float64
		if first {
			alpha = gamma / delta
			first = false
		} else {
			betaNew := gamma / gammaOld
			denom := delta - betaNew*gamma/alpha
			if denom <= 0 || math.IsNaN(denom) {
				// The three-term recurrences lost conjugacy; stop like the
				// fused engine's in-loop guard.
				result.Breakdown = true
				break
			}
			result.Betas = append(result.Betas, betaNew)
			beta = betaNew
			alpha = gamma / denom
		}
		gammaOld = gamma
		gamma, delta, rr = sys.PipelinedCGStep(in, minv, r, w, nvec, beta, alpha, pvec, svec, zvec, e.u)
		if depth > 1 {
			// Extend every recurrence except x (a solution cell is owned by
			// exactly one rank) over the matvec bounds' rings, in the same
			// order the fused step applies them so old-value reads (s reads
			// the pre-update w; r, w read the fresh s, z) are preserved.
			for _, rb := range sys.Rings(mb) {
				sys.AxpbyPre(rb, beta, pvec, 1, minv, r) // p = u' + β·p
				sys.Xpay(rb, w, beta, svec)              // s = w + β·s
				sys.Xpay(rb, nvec, beta, zvec)           // z = n + β·z
				sys.Axpy(rb, -alpha, svec, r)            // r −= α·s
				sys.Axpy(rb, -alpha, zvec, w)            // w −= α·z
			}
			e.vectorPass(mb)
		} else {
			e.vectorPass(in)
		}
	}
	result.FinalResidual = relResidual(rr, base)
	if defl != nil && rr0 > 0 {
		// Budget exhausted or breakdown: apply the final coarse correction
		// so continuation state is consistent, and report the true residual.
		rel, err := e.finishDeflated(defl, r, base)
		if err != nil {
			return result, nil, err
		}
		result.FinalResidual = rel
	}
	return result, mkState(gamma, rr, rr0), nil
}

// runCGClassicCore is the seed's multi-pass PCG engine, the reference
// path behind Options.DisableFused and for preconditioners that cannot
// be folded into fused sweeps. With a deflator configured the iteration
// runs on the projected operator P·A (every matvec is projected, one
// extra reduction round per iteration), the initial residual is aligned
// with the deflated subspace by a coarse correction, and a final coarse
// correction recovers the deflation-space component of the solution the
// projected iteration cannot see — the same composition the fused engine
// applies to its recurrences.
func runCGClassicCore[F comparable, B any](e *engine[F, B], maxIters int, tol float64) (Result, *cgState[F], error) {
	sys := e.sys
	in := e.in
	var result Result

	r := sys.NewVec()
	w := sys.NewVec()
	pvec := sys.NewVec()
	z := r // identity preconditioner: z aliases r
	if !sys.PrecondIsIdentity() {
		z = sys.NewVec()
	}
	defl := sys.Deflation()

	rr0, err := e.initialResidual(e.u, e.rhs, r)
	if err != nil {
		return result, nil, err
	}
	if defl != nil && isFinite(rr0) && rr0 > 0 {
		// Initial coarse correction: Wᵀ·r = 0 afterwards, and the
		// projected iteration keeps it so. The corrected residual is the
		// convergence baseline, matching deflate.SolveDeflatedCG.
		defl.CoarseCorrect(r, e.u)
		rr0, err = e.initialResidual(e.u, e.rhs, r)
		if err != nil {
			return result, nil, err
		}
	}
	if res, err := cgNonFinite(result, scalar{"‖r‖²", rr0}); err != nil {
		return res, nil, err
	}
	if rr0 == 0 {
		result.Converged = true
		return result, &cgState[F]{r: r, z: z, w: w, pvec: pvec}, nil
	}
	base, done := e.startupBaseSq(rr0, tol)
	if done {
		// The initial guess already solves the step to the achievable
		// precision; iterating would only pump roundoff into it.
		result.Converged = true
		result.FinalResidual = relResidual(rr0, base)
		return result, &cgState[F]{r: r, z: z, w: w, pvec: pvec, rr: rr0, rr0: rr0, base: base}, nil
	}

	// finish re-measures the true residual after a final coarse
	// correction on the deflated path; without deflation it is the plain
	// relative residual.
	finish := func(rr float64) (float64, error) {
		if defl == nil {
			return relResidual(rr, base), nil
		}
		return e.finishDeflated(defl, r, base)
	}

	e.applyPrecond(in, r, z)
	sys.Copy(in, pvec, z)
	e.vectorPass(in)

	var rz, rr float64
	if z == r {
		rz = e.dot(r, r)
		rr = rz
	} else if e.o.FusedDots {
		rz, rr = e.dotPair(z, r)
	} else {
		rz = e.dot(r, z)
		rr = e.dot(r, r)
	}
	if res, err := cgNonFinite(result, scalar{"r·z", rz}); err != nil {
		return res, nil, err
	}

	for it := 0; it < maxIters; it++ {
		if err := e.exchange(1, pvec); err != nil {
			return result, nil, err
		}
		var pw float64
		if defl != nil {
			// The projection P·w needs the plain matvec first; the fused
			// matvec+dot cannot be used because the dot must see P·A·p.
			e.matvec(in, pvec, w)
			var zero F
			pw = e.reduce(e.projectW(defl, in, w, zero, pvec))
			if res, err := cgNonFinite(result, scalar{"p·A·p", pw}); err != nil {
				return res, nil, err
			}
			if pw <= 0 {
				// P·A is only positive semi-definite outside the deflated
				// subspace; a non-positive curvature means the iteration
				// has run out of representable directions.
				result.Breakdown = true
				break
			}
		} else {
			pw = e.matvecDot(in, pvec, w)
			if res, err := cgNonFinite(result, scalar{"p·A·p", pw}); err != nil {
				return res, nil, err
			}
			if pw == 0 {
				result.Breakdown = true
				break // breakdown: direction is A-null, cannot proceed
			}
		}
		alpha := rz / pw
		sys.Axpy(in, alpha, pvec, e.u)
		sys.Axpy(in, -alpha, w, r)
		e.vectorPass(in)
		e.vectorPass(in)

		e.applyPrecond(in, r, z)

		var rzNew, rrNew float64
		if z == r {
			rzNew = e.dot(r, r)
			rrNew = rzNew
		} else if e.o.FusedDots {
			rzNew, rrNew = e.dotPair(z, r)
		} else {
			rzNew = e.dot(r, z)
			rrNew = e.dot(r, r)
		}
		if res, err := cgNonFinite(result, scalar{"‖r‖²", rrNew}, scalar{"r·z", rzNew}); err != nil {
			return res, nil, err
		}

		beta := rzNew / rz
		result.Alphas = append(result.Alphas, alpha)
		result.Iterations++
		rel := relResidual(rrNew, base)
		result.History = append(result.History, rel)
		rz, rr = rzNew, rrNew
		if rel <= tol {
			rel, err = finish(rr)
			if err != nil {
				return result, nil, err
			}
			result.FinalResidual = rel
			// The deflated path re-measures the residual after the final
			// coarse correction, which carries projection round-off; allow
			// the same 10× margin as deflate.SolveDeflatedCG.
			if defl != nil {
				result.Converged = rel <= 10*tol
			} else {
				result.Converged = true
			}
			return result, &cgState[F]{r: r, z: z, w: w, pvec: pvec, rz: rz, rr: rr, rr0: rr0, base: base}, nil
		}
		result.Betas = append(result.Betas, beta)

		sys.Xpay(in, z, beta, pvec)
		e.vectorPass(in)
	}
	rel, err := finish(rr)
	if err != nil {
		return result, nil, err
	}
	result.FinalResidual = rel
	return result, &cgState[F]{r: r, z: z, w: w, pvec: pvec, rz: rz, rr: rr, rr0: rr0, base: base}, nil
}

// chebyGuardFactor is the residual-growth threshold of the bootstrap
// guard: a periodic convergence check observing the relative residual
// above this multiple of the value at the start of the Chebyshev phase
// declares the eigenvalue estimate divergent. Divergence from a λmax
// underestimate is exponential (the iteration amplifies every mode above
// the estimated interval), so a 4× rise over ≥CheckEvery iterations is
// unambiguous, while the transient non-monotonicity of a healthy
// Chebyshev residual stays well below it.
const chebyGuardFactor = 4

// chebyMaxRebootstraps bounds the guard's retries; each retry doubles the
// bootstrap CG iteration count.
const chebyMaxRebootstraps = 3

// solveChebyCore runs the stand-alone Chebyshev iteration: EigenCGIters
// of CG estimate the extremal eigenvalues (§III-D), then the main loop is
// reduction-free except for a convergence check every CheckEvery
// iterations. On the fused path each iteration is three sweeps — the
// matvec, a fused u/r update, and the direction update with the diagonal
// preconditioner folded in — versus five unfused.
//
// A residual-growth guard protects the bootstrap (ROADMAP): a short CG
// bootstrap can underestimate λmax on smooth problems, which makes the
// Chebyshev polynomial amplify the top of the spectrum and the iteration
// diverge. When a periodic check sees the residual grow chebyGuardFactor×
// above the phase start, the solve re-bootstraps with twice the CG
// iterations (continuing from the current iterate — CG contracts the
// inflated modes right back) and rebuilds the schedule from the sharper
// estimate. Result.Rebootstraps counts the retries. The guard recovers a
// residual that has grown, however far, while it is still finite; once
// ‖r‖² has overflowed to Inf or NaN between two checks (CheckEvery set
// wider than the overflow takes) the iterate is lost, re-bootstrapping
// from it cannot bring it back, and the check returns ErrBreakdown.
func solveChebyCore[F comparable, B any](e *engine[F, B]) (Result, error) {
	o := e.o
	sys := e.sys
	in := e.in
	var result Result
	var zscr F // lazily allocated preconditioner scratch
	var rr0 float64
	bootIters := o.EigenCGIters

	for {
		remaining := o.MaxIters - result.Iterations
		if remaining <= 0 {
			return result, nil
		}
		cgIters := bootIters
		if cgIters > remaining {
			cgIters = remaining
		}

		// --- Bootstrap: CG for eigenvalue estimation (also advances u). ---
		boot, st, err := runCGCore(e, cgIters, o.Tol)
		first := result.BootstrapIters == 0
		result.Iterations += boot.Iterations
		result.BootstrapIters += boot.Iterations
		result.Alphas = append(result.Alphas, boot.Alphas...)
		result.Betas = append(result.Betas, boot.Betas...)
		if err != nil || st == nil {
			// Startup breakdown or exchange failure (st is nil on the
			// latter): surface it with whatever progress was recorded.
			result.History = append(result.History, boot.History...)
			result.FinalResidual = boot.FinalResidual
			result.Breakdown = boot.Breakdown
			return result, err
		}
		if first {
			rr0 = st.rr0
			result.History = append(result.History, boot.History...)
		} else if rr0 > 0 && st.rr0 > 0 {
			// Later phases baseline against their own starting residual;
			// rescale so History stays relative to the original r₀.
			scale := math.Sqrt(st.rr0 / rr0)
			for _, h := range boot.History {
				result.History = append(result.History, h*scale)
			}
		}
		if boot.Converged {
			if first {
				result.Converged = true
				result.FinalResidual = boot.FinalResidual
				return result, nil
			}
			// Converged against the re-bootstrap baseline: confirm against
			// the original one.
			rel := relResidual(st.rr, rr0)
			result.FinalResidual = rel
			result.Converged = rel <= o.Tol
			if result.Converged {
				return result, nil
			}
		}
		if !isFinite(st.rr) {
			return nonFinite(result, "chebyshev", "bootstrap ‖r‖²", st.rr)
		}
		est, err := eigen.EstimateFromCG(boot.Alphas, boot.Betas)
		if err != nil {
			return result, fmt.Errorf("solver: eigenvalue bootstrap failed: %w", err)
		}
		result.Eigen = &est

		sched, err := cheby.NewSchedule(est.Min, est.Max, o.MaxIters)
		if err != nil {
			return result, fmt.Errorf("solver: chebyshev schedule: %w", err)
		}

		// --- Chebyshev main loop, continuing from the CG state. ---
		r, z, w := st.r, st.z, st.w
		if isZeroF(z) {
			// The fused CG engine folds diagonal preconditioners and leaves
			// no z scratch behind; the startup (and the unfused branch
			// below) still need one.
			if isZeroF(zscr) {
				zscr = sys.NewVec()
			}
			z = zscr
		}
		pvec := st.pvec

		minv, foldable := sys.FoldableDiag()
		fused := !o.DisableFused && foldable

		e.applyPrecond(in, r, z)
		sys.ScaleTo(in, 1/sched.Theta, z, pvec) // p = z/θ
		e.vectorPass(in)

		startRel := relResidual(st.rr, rr0)
		guardOn := result.Rebootstraps < chebyMaxRebootstraps
		diverged := false
		mainIters := o.MaxIters - result.Iterations
		for it := 0; it < mainIters; it++ {
			if err := e.exchange(1, pvec); err != nil {
				return result, err
			}
			step := it
			if step >= sched.Steps() {
				step = sched.Steps() - 1 // coefficients have converged by then
			}
			e.matvec(in, pvec, w)
			if fused {
				// u += p and r −= A·p share one sweep; the direction update
				// p = α·p + β·M⁻¹r folds the preconditioner into a second.
				sys.AxpyAxpy(in, 1, pvec, e.u, -1, w, r)
				e.vectorPass(in)
				sys.AxpbyPre(in, sched.Alpha[step], pvec, sched.Beta[step], minv, r)
				e.vectorPass(in)
			} else {
				sys.Axpy(in, 1, pvec, e.u) // u += p
				sys.Axpy(in, -1, w, r)     // r -= A·p
				e.vectorPass(in)
				e.vectorPass(in)

				e.applyPrecond(in, r, z)
				// p = α·p + β·z (AxpbyPre with the identity).
				var zero F
				sys.AxpbyPre(in, sched.Alpha[step], pvec, sched.Beta[step], zero, z)
				e.vectorPass(in)
			}

			result.Iterations++
			result.TotalInner++
			// The forced check on the last main-loop iteration (not
			// MaxIters-1, which the bootstrap already consumed) keeps
			// FinalResidual fresh.
			if (it+1)%o.CheckEvery == 0 || it == mainIters-1 {
				rr := e.dot(r, r)
				rel := relResidual(rr, rr0)
				result.History = append(result.History, rel)
				result.FinalResidual = rel
				if !isFinite(rr) {
					// The iterate is gone, and re-bootstrapping from it
					// cannot bring it back.
					return nonFinite(result, "chebyshev", "‖r‖²", rr)
				}
				if rel <= o.Tol {
					result.Converged = true
					return result, nil
				}
				if guardOn && rel > chebyGuardFactor*startRel {
					diverged = true
					break
				}
			}
		}
		if !diverged {
			if result.FinalResidual == 0 && rr0 > 0 {
				rr := e.dot(r, r)
				result.FinalResidual = relResidual(rr, rr0)
				result.Converged = result.FinalResidual <= o.Tol
			}
			return result, nil
		}
		// Divergent λmax underestimate: re-bootstrap with more CG
		// iterations from the current iterate.
		result.Rebootstraps++
		bootIters *= 2
	}
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// nonFinite ends a solve whose globally reduced scalar `name` came back
// NaN or Inf: res marked broken down, and an ErrBreakdown error naming
// the iteration. The scalar is post-reduction, so every rank returns
// here together.
func nonFinite(res Result, solver, name string, v float64) (Result, error) {
	res.Breakdown = true
	return res, fmt.Errorf("solver: %s iteration %d: %s = %v: %w", solver, res.Iterations, name, v, ErrBreakdown)
}

// scalar is a named post-reduction value for cgNonFinite.
type scalar struct {
	name string
	v    float64
}

// cgNonFinite ends a CG solve (any engine) at the first of its
// post-reduction scalars that is NaN or Inf, so a non-finite input or
// iterate stops at the iteration it first appears instead of running to
// the budget or passing for a converged step (an Inf residual over an
// Inf ‖b‖ meets the stop test). err is nil when every scalar is finite.
func cgNonFinite(res Result, scalars ...scalar) (Result, error) {
	for _, s := range scalars {
		if !isFinite(s.v) {
			return nonFinite(res, "cg", s.name, s.v)
		}
	}
	return res, nil
}

// solvePPCGCore runs the paper's headline solver: CG preconditioned by a
// shifted and scaled Chebyshev polynomial (CPPCG, §III). Each outer CG
// iteration applies InnerSteps Chebyshev smoothing steps to the residual;
// the inner steps need only sparse matrix-vector products and halo
// exchanges — no global reductions — so the number of global dot products
// drops by roughly √(κ_cg/κ_pcg) (eqs. 6–7).
//
// With HaloDepth d > 1 the inner loop uses the matrix-powers kernel
// (§IV-C2): one depth-d exchange buys d inner applications computed on
// extended bounds that shrink by one cell per step, trading a little
// redundant computation for d× fewer messages.
//
// On the fused path (the default, with a diagonal-foldable inner
// preconditioner) each inner step is ONE stencil evaluation per cell — the
// matvec folded into the residual-update/preconditioner/direction/
// accumulate kernel — versus five sweeps unfused, and the steps of one
// matrix-powers block share one pass over the grid (ChebySteps, a
// temporal wavefront); the outer solution/residual update
// rides the inner solve's one set-up sweep, and the outer dot products
// use the fused two-in-one kernel: per outer iteration 1 + InnerSteps
// traced stencil sweeps (in 1 + ⌈InnerSteps/d⌉ passes over the grid), two
// vector passes and one dot pass.
//
// With a deflator configured the outer PCG runs on the projected operator
// P·A (the bootstrap CG already ran deflated and left Wᵀ·r = 0): each
// outer matvec is projected at the cost of one extra reduction round, the
// reduction-free inner Chebyshev smoothing is untouched, and a final
// coarse correction recovers the deflated solution component. The
// bootstrap's eigenvalue estimate then describes the deflated spectrum,
// which is exactly the interval the polynomial should target.
//
// A non-finite outer scalar (p·A·p, r·z or ‖r‖² — non-finite input, or a
// polynomial overflowing on a wild spectrum estimate) ends the solve with
// an ErrBreakdown error at the iteration it first appears. The scalars
// are post-reduction, so every rank takes the same exit.
func solvePPCGCore[F comparable, B any](e *engine[F, B]) (Result, error) {
	o := e.o
	sys := e.sys
	in := e.in
	defl := sys.Deflation()

	// --- Bootstrap: PCG for eigenvalue estimation (spectrum of M⁻¹A). ---
	boot, st, err := runCGCore(e, o.EigenCGIters, o.Tol)
	if err != nil {
		return boot, err
	}
	result := Result{
		Iterations:     boot.Iterations,
		BootstrapIters: boot.Iterations,
		History:        boot.History,
		Alphas:         boot.Alphas,
		Betas:          boot.Betas,
	}
	if boot.Converged {
		result.Converged = true
		result.FinalResidual = boot.FinalResidual
		return result, nil
	}
	if !isFinite(st.rr) {
		return nonFinite(result, "ppcg", "bootstrap ‖r‖²", st.rr)
	}
	est, err := eigen.EstimateFromCG(boot.Alphas, boot.Betas)
	if err != nil {
		return result, fmt.Errorf("solver: eigenvalue bootstrap failed: %w", err)
	}
	result.Eigen = &est

	sched, err := cheby.NewSchedule(est.Min, est.Max, o.InnerSteps)
	if err != nil {
		return result, fmt.Errorf("solver: chebyshev schedule: %w", err)
	}

	powers, err := sys.NewPowers(o.HaloDepth)
	if err != nil {
		return result, err
	}

	// --- Outer PCG with the Chebyshev polynomial as preconditioner. ---
	r, w, pvec := st.r, st.w, st.pvec
	rr0 := st.rr0
	base := st.base
	if base == 0 {
		base = rr0 // bootstrap predates the widened deflated baseline
	}
	inner := newInnerCore(e, sched, powers)
	z := inner.z // accumulated polynomial correction (utemp)

	var none F
	if err := inner.apply(0, none, none, r); err != nil {
		return result, err
	}
	result.TotalInner += o.InnerSteps
	sys.Copy(in, pvec, z)
	e.vectorPass(in)

	rz := e.dot(r, z)
	if !isFinite(rz) {
		return nonFinite(result, "ppcg", "r·z", rz)
	}

	for it := result.Iterations; it < o.MaxIters; it++ {
		if err := e.exchange(1, pvec); err != nil {
			return result, err
		}
		var pw float64
		if defl != nil {
			// The projection P·w needs the plain matvec first; the fused
			// matvec+dot cannot be used because the dot must see P·A·p.
			e.matvec(in, pvec, w)
			var zero F
			pw = e.reduce(e.projectW(defl, in, w, zero, pvec))
		} else {
			pw = e.matvecDot(in, pvec, w)
		}
		if !isFinite(pw) {
			return nonFinite(result, "ppcg", "p·A·p", pw)
		}
		// P·A is only positive semi-definite outside the deflated subspace,
		// so the deflated test is on the sign, the plain one on zero.
		if pw == 0 || (defl != nil && pw < 0) {
			result.Breakdown = true
			break
		}

		// u += α·p, r −= α·w, then z ≈ B(A)·r.
		if err := inner.apply(rz/pw, pvec, w, r); err != nil {
			return result, err
		}
		result.TotalInner += o.InnerSteps

		var rzNew, rrNew float64
		if !o.DisableFused || o.FusedDots {
			rzNew, rrNew = e.dotPair(z, r)
		} else {
			rzNew = e.dot(r, z)
			rrNew = e.dot(r, r)
		}
		if !isFinite(rzNew) {
			return nonFinite(result, "ppcg", "r·z", rzNew)
		}
		if !isFinite(rrNew) {
			return nonFinite(result, "ppcg", "‖r‖²", rrNew)
		}
		beta := rzNew / rz
		rz = rzNew
		result.Iterations++
		rel := relResidual(rrNew, base)
		result.History = append(result.History, rel)
		result.FinalResidual = rel
		if rel <= o.Tol {
			result.Converged = true
			if defl != nil {
				rel, err := e.finishDeflated(defl, r, base)
				if err != nil {
					return result, err
				}
				result.FinalResidual = rel
				result.Converged = rel <= 10*o.Tol
			}
			return result, nil
		}
		sys.Xpay(in, z, beta, pvec)
		e.vectorPass(in)
	}
	if defl != nil && rr0 > 0 {
		// Budget exhausted or breakdown: the final coarse correction still
		// applies, and FinalResidual reports the true residual.
		rel, err := e.finishDeflated(defl, r, base)
		if err != nil {
			return result, err
		}
		result.FinalResidual = rel
	}
	return result, nil
}

// innerCore applies the Chebyshev polynomial preconditioner z ≈ B(A)·r
// via InnerSteps smoothing steps (TeaLeaf's tl_ppcg inner solve), using
// the matrix-powers schedule for its halo exchanges.
type innerCore[F comparable, B any] struct {
	e      *engine[F, B]
	sched  *cheby.Schedule
	powers powersSched[B]
	z      F // output: accumulated correction
	rtemp  F
	// sd is the current search direction. On the fused path it ping-pongs
	// with alt — within a block, step j reads sd for even j and alt for odd
	// j, and the two handles swap after a block of odd length — so
	// whichever field holds the direction when the halo runs out is the one
	// exchanged. Unfused, sd updates in place and alt is the matvec's
	// target.
	sd, alt F
	zscr    F // M⁻¹·rtemp scratch, unfused path only
	// minv is the folded diagonal preconditioner for the fused step (zero
	// = identity); fused reports whether the fused kernel path is usable.
	minv  F
	fused bool
	// bs holds the current block's matrix-powers bounds, one per step,
	// reused from block to block.
	bs []B
}

func newInnerCore[F comparable, B any](e *engine[F, B], sched *cheby.Schedule, powers powersSched[B]) *innerCore[F, B] {
	minv, foldable := e.sys.FoldableDiag()
	s := &innerCore[F, B]{
		e: e, sched: sched, powers: powers,
		z: e.sys.NewVec(), rtemp: e.sys.NewVec(), sd: e.sys.NewVec(), alt: e.sys.NewVec(),
		minv: minv, fused: !e.o.DisableFused && foldable,
		bs: make([]B, 0, powers.Depth()),
	}
	if !s.fused {
		s.zscr = e.sys.NewVec()
	}
	return s
}

// apply advances the outer iterate, u += α·p and r −= α·w (skipped for a
// zero p: the pre-loop call), and runs the inner Chebyshev iteration on
// the new residual:
//
//	rtemp = r;  sd = M⁻¹rtemp/θ;  z = sd
//	repeat InnerSteps times:
//	    rtemp ← rtemp − A·sd        (on matrix-powers bounds)
//	    sd    ← α_k·sd + β_k·M⁻¹rtemp
//	    z     ← z + sd              (interior only)
//
// leaving the polynomial-preconditioned residual in s.z. On the fused
// path the outer update and the set-up are one pointwise sweep
// (PPCGInnerInit) and the steps one exchange buys are one pass over the
// grid (ChebySteps, traced as a matvec per step over its bounds).
func (s *innerCore[F, B]) apply(alpha float64, p, w, r F) error {
	e := s.e
	sys := e.sys
	in := e.in

	if s.fused {
		// Interior only: the depth-d exchange below rewrites every halo
		// cell of sd and rtemp the extended bounds read.
		sys.PPCGInnerInit(in, alpha, p, w, e.u, r, s.rtemp, 1/s.sched.Theta, s.minv, s.sd, s.z)
		e.vectorPass(in)
		return s.fusedSteps()
	}

	if !isZeroF(p) {
		if !e.o.DisableFused {
			// u += α·p and r −= α·w share one sweep.
			sys.AxpyAxpy(in, alpha, p, e.u, -alpha, w, r)
			e.vectorPass(in)
		} else {
			sys.Axpy(in, alpha, p, e.u)
			sys.Axpy(in, -alpha, w, r)
			e.vectorPass(in)
			e.vectorPass(in)
		}
	}
	// rtemp starts as a copy of the outer residual; the depth-d
	// exchange below makes its halo consistent before any
	// extended-bounds work.
	sys.CopyAll(s.rtemp, r)
	e.vectorPass(in)
	e.applyPrecond(in, s.rtemp, s.zscr)
	sys.ScaleTo(in, 1/s.sched.Theta, s.zscr, s.sd)
	e.vectorPass(in)
	sys.Copy(in, s.z, s.sd)
	e.vectorPass(in)

	// Force a fresh exchange at the start of every inner solve: rtemp and
	// sd were rebuilt from the outer residual.
	needExchange := true
	for step := 0; step < e.o.InnerSteps; step++ {
		var b B
		if !needExchange {
			var ok bool
			b, ok = s.powers.Next()
			needExchange = !ok
		}
		if needExchange {
			if err := e.exchange(s.powers.Depth(), s.sd, s.rtemp); err != nil {
				return err
			}
			s.powers.Refill()
			var ok bool
			b, ok = s.powers.Next()
			if !ok {
				return fmt.Errorf("solver: matrix-powers schedule empty after refill")
			}
			needExchange = false
		}

		e.matvec(b, s.sd, s.alt)
		sys.Axpy(b, -1, s.alt, s.rtemp) // rtemp -= A·sd
		e.vectorPass(b)

		e.applyPrecond(b, s.rtemp, s.zscr)
		// sd = α·sd + β·zscr (AxpbyPre with the identity).
		var zero F
		sys.AxpbyPre(b, s.sched.Alpha[step], s.sd, s.sched.Beta[step], zero, s.zscr)
		e.vectorPass(b)

		sys.Axpy(in, 1, s.sd, s.z) // z += sd (interior)
		e.vectorPass(in)
	}
	return nil
}

// fusedSteps runs the fused path's InnerSteps Chebyshev steps as blocks:
// one depth-d exchange of sd and rtemp, then up to d steps on the
// schedule's shrinking bounds in one ChebySteps pass. Every inner solve
// starts with a fresh exchange, because rtemp and sd were rebuilt from
// the outer residual, so there are ⌈InnerSteps/d⌉ exchanges.
func (s *innerCore[F, B]) fusedSteps() error {
	e := s.e
	for step := 0; step < e.o.InnerSteps; {
		if err := e.exchange(s.powers.Depth(), s.sd, s.rtemp); err != nil {
			return err
		}
		s.powers.Refill()
		s.bs = s.bs[:0]
		for len(s.bs) < e.o.InnerSteps-step {
			b, ok := s.powers.Next()
			if !ok {
				break
			}
			s.bs = append(s.bs, b)
		}
		n := len(s.bs)
		if n == 0 {
			return fmt.Errorf("solver: matrix-powers schedule empty after refill")
		}
		e.chebySteps(s.bs, s.sched.Alpha[step:step+n], s.sched.Beta[step:step+n],
			s.sd, s.alt, s.rtemp, s.minv, s.z)
		if n%2 == 1 {
			s.sd, s.alt = s.alt, s.sd
		}
		step += n
	}
	return nil
}

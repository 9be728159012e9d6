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

// runCGCore is the one CG engine, the Chronopoulos–Gear single-reduction
// PCG (§VII), for every preconditioner. Writing z = M⁻¹r, it maintains p
// (search direction) and s = A·p by recurrence, so each iteration needs
// one reduction round:
//
//	step:   p = z + β·p;  x += α·p;
//	        s = w + β·s;  r −= α·s;  z = M⁻¹r;  γ' = r·z; rr = r·r
//	matvec: w = A·z;  δ = z·w
//	allreduce {γ', rr, δ} in one round, then
//	β = γ'/γ,  α = γ'/(δ − β·γ'/α)
//
// It records the (α, β) scalars and returns the final state for solvers
// that continue the run.
//
// A diagonal preconditioner (or the identity) is folded into the sweeps:
// z = minv⊙r is never materialised, and a zero minv is the identity, for
// which γ == rr. The step and the matvec then run as one row-lagged pass
// (CGIter): row k's matvec reads r on rows k−1..k+1, so it runs as soon as
// row k+1 has been stepped, and r and w stream through cache once per
// iteration. The step is the whole vector phase: each cache-resident row
// takes the direction recurrences and the updates they feed back to back.
// Everything is bit-identical to running the step and the matvec as two
// sweeps (FusedCGStep, then ApplyPreDot).
//
// The matvec needs r's new values one cell beyond its bounds. A rank with
// no neighbour gets them by reflection, which the pass writes as it steps
// the boundary rows, so a single-rank iteration exchanges nothing. A rank
// neighbour at halo depth 1 is the case that keeps two sweeps, with the
// depth-1 exchange of r between them: the pass is chosen by the grid's
// neighbours and the halo depth. The folded sweeps read minv one cell
// beyond their bounds too. The Jacobi constructors can only evaluate the
// diagonal on the padded region minus its outermost layer, so on a halo-1
// grid with a rank neighbour (and on any deep-halo cycle) minv is
// exchanged once before the solve; a physical side's ring is multiplied
// by a zero face coefficient and needs nothing.
//
// A preconditioner that does not fold (jac_block's strip and z-line
// solves) runs the same recurrences with an explicit z: the step is three
// vector sweeps, then z = M⁻¹r, a depth-1 exchange of z, the matvec with
// δ fused in and one dot sweep for γ' and rr — still one reduction round
// per iteration. It runs at depth 1 only: block preconditioners are
// barred from deep halos (Options.HaloDepth).
//
// With a deflator configured the same recurrences run on the projected
// operator P·A: the matvec is followed by the (collective) projection,
// the curvature δ is re-measured against the projected w, and coarse
// corrections before and after the loop recover the deflated component
// exactly. Each iteration then pays two reduction rounds — the
// projector's coarse round plus the scalar round — versus the plain
// loop's one. On the one-pass paths the projector's restriction rides the
// pass too: each finished row of w goes to its row sums while in cache,
// and the projection keeps only the fold, the coarse solve and the
// correction pass.
//
// With Options.HaloDepth d > 1 the loop runs a matrix-powers cycle
// (§IV-C2), previously exclusive to the PPCG inner solve: one depth-d
// exchange of {r, w, s} at the top of each d-iteration cycle replaces the
// per-iteration depth-1 exchange of r. Iteration j of a cycle steps the
// extended bounds ext(d−j) — the interior grown by d−j cells toward
// every rank neighbour — and runs its matvec on ext(d−1−j), so each
// sweep's inputs are valid exactly one cell beyond its own bounds and the
// halo data ages out one cell per iteration. On the extension rings only
// r and s advance (p feeds x alone, and x is interior-only, so p is not
// exchanged either); the extended cells are redundant compute replicating
// the neighbour's interior, and all dots stay interior-only in the
// interior's band order, so the reduced scalars (and hence the iterates)
// are unchanged from depth 1 — the cycle trades ~2·d·halo cells of
// redundant compute for d× fewer messages, the same latency-for-bandwidth
// trade the PPCG inner powers schedule makes. Deflated solves join the
// cycle: the correction pass maintains w = P·A·z on the extended bounds,
// with the re-measured curvature δ folded out of it.
func runCGCore[F comparable, B any](e *engine[F, B], maxIters int, tol float64) (Result, *cgState[F], error) {
	sys := e.sys
	in := e.in
	var result Result

	defl := sys.Deflation()
	minv, folded := sys.FoldableDiag()

	r := sys.NewVec()
	w := sys.NewVec()
	pvec := sys.NewVec()
	svec := sys.NewVec()
	// z = M⁻¹r. For the identity it aliases r; a folded diagonal never
	// materialises it (the Chebyshev continuation allocates its own
	// scratch on demand); an unfoldable preconditioner writes it every
	// iteration. The curvature δ = z·w is measured against (pm⊙px): the
	// folded minv⊙r, or the explicit z.
	var zero F
	z, pm, px := r, minv, r
	if !folded {
		z = sys.NewVec()
		pm, px = zero, z
	} else if !isZeroF(minv) {
		z = zero
	}
	base := 0.0 // stop-test baseline, widened from rr0 once it is known
	mkState := func(gamma, rr, rr0 float64) *cgState[F] {
		return &cgState[F]{r: r, z: z, w: w, pvec: pvec, rz: gamma, rr: rr, rr0: rr0, base: base}
	}

	depth := max(e.o.HaloDepth, 1)
	// A depth-1 iteration runs as one pass only where no rank neighbour's
	// halo of r has to be exchanged between the step and the matvec.
	alone := sys.Cells(sys.Extend(1)) == e.cells
	if !isZeroF(minv) && (depth > 1 || (!alone && sys.GridHalo() == 1)) {
		// The folded diagonal is sweep input one cell beyond every bounds
		// the solve sweeps; it never changes during the solve, so one
		// exchange suffices.
		if err := e.exchange(depth, minv); err != nil {
			return result, nil, err
		}
	}

	// Startup: r = rhs − A·x, then the preconditioned matvec produces
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
	var gamma, delta, rr0 float64
	if folded {
		if err := e.exchange(1, r); err != nil {
			return result, nil, err
		}
		gamma, delta, rr0 = sys.ApplyPreDotInit(in, minv, r, w)
		e.tr.AddMatvec(e.cells)
	} else {
		var err error
		if gamma, rr0, delta, err = e.precondMatvec(r, z, w); err != nil {
			return result, nil, err
		}
	}
	if defl != nil {
		// w = P·A·M⁻¹r; δ must see the projected w.
		delta = e.projectW(defl, in, w, pm, px)
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

	alpha := gamma / delta
	beta := 0.0
	rr := rr0
	for it := 0; it < maxIters; it++ {
		var gammaNew, rrNew, deltaNew float64
		mb := in // matvec bounds: extended on the deep path
		restricted := false
		switch {
		case !folded:
			sys.Xpay(in, z, beta, pvec)
			sys.Xpay(in, w, beta, svec)
			sys.AxpyAxpy(in, alpha, pvec, e.u, -alpha, svec, r)
			e.vectorPass(in)
			e.vectorPass(in)
			e.vectorPass(in)
			var err error
			if gammaNew, rrNew, deltaNew, err = e.precondMatvec(r, z, w); err != nil {
				return result, nil, err
			}
		case depth > 1:
			j := it % depth
			if j == 0 {
				// Cycle top: one deep exchange of what the cycle's ring
				// steps and matvecs read replaces depth per-iteration
				// exchanges of r.
				if err := e.exchange(depth, r, w, svec); err != nil {
					return result, nil, err
				}
			}
			mb = sys.Extend(depth - 1 - j)
			gammaNew, rrNew, deltaNew, restricted = e.cgIter(sys.Extend(depth-j), mb, false, minv, r, w, beta, alpha, pvec, svec)
		case alone:
			gammaNew, rrNew, deltaNew, restricted = e.cgIter(in, in, true, minv, r, w, beta, alpha, pvec, svec)
		default:
			gammaNew, rrNew = sys.FusedCGStep(in, minv, r, w, beta, alpha, pvec, svec, e.u)
			e.vectorPass(in)
			if err := e.exchange(1, r); err != nil {
				return result, nil, err
			}
			deltaNew = sys.ApplyPreDot(in, minv, r, w)
			e.tr.AddMatvec(e.cells)
		}
		if restricted {
			deltaNew = e.projectWRestricted(defl, mb, w, minv, r)
		} else if defl != nil {
			deltaNew = e.projectW(defl, mb, w, pm, px)
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
				// a 10× margin for the projection's round-off.
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
			// is numerically semi-definite). Stop like the textbook PCG
			// loop's pw == 0 guard, and record it.
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
// iterations. With a diagonal preconditioner (or none) each iteration is
// three sweeps — the matvec, a fused u/r update, and the direction update
// with the diagonal folded in; a block preconditioner takes five.
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
			// The CG engine folds diagonal preconditioners and leaves no z
			// scratch behind; the startup (and the block-preconditioner
			// branch below) still need one.
			if isZeroF(zscr) {
				zscr = sys.NewVec()
			}
			z = zscr
		}
		pvec := st.pvec

		minv, fused := sys.FoldableDiag()

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
// With a diagonal-foldable inner preconditioner (or none) each inner step
// is ONE stencil evaluation per cell — the matvec folded into the
// residual-update/preconditioner/direction/accumulate kernel — versus
// five sweeps for a block preconditioner, and the steps of one
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

		rzNew, rrNew := e.dotPair(z, r)
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
	minv, fused := e.sys.FoldableDiag()
	s := &innerCore[F, B]{
		e: e, sched: sched, powers: powers,
		z: e.sys.NewVec(), rtemp: e.sys.NewVec(), sd: e.sys.NewVec(), alt: e.sys.NewVec(),
		minv: minv, fused: fused,
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
		// u += α·p and r −= α·w share one sweep.
		sys.AxpyAxpy(in, alpha, p, e.u, -alpha, w, r)
		e.vectorPass(in)
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

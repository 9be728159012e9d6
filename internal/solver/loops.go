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
// are no per-dimension copies of the CG, Chebyshev or PPCG loops. There
// is one CG engine, runCGCore: CG runs it, Chebyshev bootstraps on it,
// and PPCG both bootstraps on it and runs its outer iteration on it,
// with the inner Chebyshev solve (innerCore) as the preconditioner.

// cgState is the live state runCGCore leaves behind so Chebyshev and
// PPCG can continue from the bootstrap phase. On a deflated solve w is
// left uncorrected — the raw A·z of the last matvec, its projection never
// applied — which is safe because Chebyshev uses w only as scratch that
// it overwrites first.
type cgState[F comparable] struct {
	r, z, w, pvec F
	rr, rr0       float64
	// base is the squared baseline the relative stop test divided by
	// (startupBaseSq). PPCG's outer iteration reuses it so bootstrap and
	// outer iteration measure convergence against the same denominator.
	base float64
}

// cgStep is the operands of one CG engine step with an explicit z:
// p = z + β·p, x += α·p, s = w + β·s, r −= α·s, with d's pending
// deflation correction applied to w's rows before the step reads them.
type cgStep[F comparable] struct {
	beta, alpha float64
	p, s        F
	d           deflRows
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
// corrected solution, so a solver that continues from a deflated run
// (PPCG's outer iteration after its bootstrap, a restart in solveCG)
// resumes from a consistent state with Wᵀ·r = 0.
func (e *engine[F, B]) finishDeflated(defl deflator[F], r F, rr0 float64) (float64, error) {
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
// PCG (§VII), for every preconditioner — the configured one, or, when m
// is non-nil, PPCG's inner Chebyshev solve. Writing z = M⁻¹r, it
// maintains p (search direction) and s = A·p by recurrence, so each
// iteration needs one reduction round:
//
//	step:   p = z + β·p;  x += α·p;
//	        s = w + β·s;  r −= α·s;  z = M⁻¹r;  γ' = r·z; rr = r·r
//	matvec: w = A·z;  δ = z·w
//	allreduce {γ', rr, δ} in one round, then
//	β = γ'/γ,  α = γ'/(δ − β·γ'/α)
//
// It runs at most maxIters iterations against the tolerance Options.Tol,
// records the (α, β) scalars and returns the final state for solvers
// that continue the run. A non-zero base is an earlier phase's stop
// baseline: the stop test keeps it (or rr0, if larger) instead of taking
// one at startup.
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
// neighbour is the case that keeps two sweeps, with the depth-1 exchange
// of r between them: the pass is chosen by the grid's neighbours alone.
// The folded sweeps read minv one cell beyond their bounds too. The
// Jacobi constructors can only evaluate the diagonal on the padded region
// minus its outermost layer, so on a halo-1 grid with a rank neighbour
// minv is exchanged once before the solve; a physical side's ring is
// multiplied by a zero face coefficient and needs nothing.
//
// A preconditioner that does not fold (jac_block's strip and z-line
// solves) runs the same recurrences with an explicit z: the step is three
// vector sweeps, then z = M⁻¹r, a depth-1 exchange of z, the matvec with
// δ fused in and one dot sweep for γ' and rr — still one reduction round
// per iteration (precondMatvec). PPCG's inner solve m is the other
// explicit z: on its fused path the step rides the inner solve's set-up
// sweep (PPCGStep), and the ChebySteps blocks follow before the same
// exchange, matvec, dot sweep and round.
//
// With a deflator configured the same recurrences run on the projected
// operator P·A = (I − A·W·E⁻¹·Wᵀ)·A, with coarse corrections before and
// after the loop recovering the deflated component exactly — still one
// pass and one reduction round per iteration. The matvec produces the raw
// w = A·z and δ = z·w and hands each finished row of w to the
// projector's restriction, so b = Wᵀ·w rides the pass; b travels in the
// scalar round with γ', rr and δ (reduceCG). Every rank then solves
// E·λ = b from the same sums and takes the projected curvature from the
// coarse solve: the face-flux A is exactly symmetric, so
// z·(A·W·λ) = (Wᵀ·A·z)·λ = bᵀλ and z·(P·w) = δ − bᵀλ, no sweep needed.
// The correction w −= A·W·λ is left pending and applied row by row by
// the next sweep that reads w, just before it does: in the step, the
// block-face terms go into w's row and λ_c is taken off w in the step's
// own arithmetic (s = (w − λ_c) + β·s); jac_block's s = w + β·s sweep
// applies the whole correction to the row first. Per cell that is the
// old correction sweep's arithmetic, so only δ's rounding differs from
// projecting w after the pass.
//
// Every iteration exchanges at depth 1 whatever Options.HaloDepth says:
// the halo depth is PPCG's inner matrix-powers depth, which only m's
// steps use.
func runCGCore[F comparable, B any](e *engine[F, B], m *innerCore[F, B], maxIters int, base float64) (Result, *cgState[F], error) {
	sys := e.sys
	in := e.in
	tol := e.o.Tol
	var result Result

	defl := sys.Deflation()
	minv, folded := sys.FoldableDiag()
	if m != nil {
		// The inner solve is an explicit z; it folds the diagonal into its
		// own sweeps.
		var zero F
		minv, folded = zero, false
	}

	r := sys.Vec(vecR)
	w := sys.Vec(vecW)
	pvec := sys.Vec(vecP)
	svec := sys.Vec(vecS)
	// z = M⁻¹r. For the identity it aliases r; a folded diagonal never
	// materialises it (the Chebyshev continuation takes its own scratch
	// on demand); an unfoldable preconditioner writes it every iteration.
	z := r
	if !folded {
		z = sys.Vec(vecZ)
	} else if !isZeroF(minv) {
		var zero F
		z = zero
	}
	mkState := func(rr, rr0 float64) *cgState[F] {
		return &cgState[F]{r: r, z: z, w: w, pvec: pvec, rr: rr, rr0: rr0, base: base}
	}

	// An iteration runs as one pass only where no rank neighbour's halo
	// of r has to be exchanged between the step and the matvec.
	alone := sys.Alone()
	if !isZeroF(minv) && !alone && sys.GridHalo() == 1 {
		// The folded diagonal is sweep input one cell beyond the interior;
		// it never changes during the solve, so one exchange suffices.
		if err := e.exchange(1, minv); err != nil {
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
	// With a deflator every matvec hands w's rows to the restriction and
	// every sweep that next reads w corrects its rows first (deflRows).
	dr := deflRows{correct: defl != nil, restrict: defl != nil}
	var gamma, delta, rr0 float64
	if folded {
		if err := e.exchange(1, r); err != nil {
			return result, nil, err
		}
		gamma, delta, rr0 = sys.ApplyPreDotInit(in, minv, r, w, dr)
		e.tr.AddMatvec(e.cells)
	} else {
		var err error
		if gamma, rr0, delta, err = e.precondMatvec(m, nil, r, z, w, dr); err != nil {
			return result, nil, err
		}
	}
	// Deflated, δ comes back projected: z·(P·w) (reduceCG).
	gamma, rr0, delta = e.reduceCG(defl, gamma, rr0, delta)
	if res, err := cgNonFinite(result, scalar{"‖r‖²", rr0}, scalar{"γ", gamma}, scalar{"δ", delta}); err != nil {
		return res, nil, err
	}
	if rr0 == 0 {
		result.Converged = true
		return result, mkState(0, 0), nil
	}
	var done bool
	if base > 0 {
		// A continuation keeps the earlier phase's baseline and stops on
		// the iteration's own test: the startup's 10× noise margin is for
		// the first residual of a step, not for one an earlier phase has
		// already brought close to the tolerance.
		base = max(base, rr0)
		done = rr0 <= tol*tol*base
	} else {
		base, done = e.startupBaseSq(rr0, tol)
	}
	if done {
		// The initial guess already solves the step to the achievable
		// precision; iterating would only pump roundoff into it. Checked
		// before the curvature guard — a noise-scale residual can
		// legitimately present δ ≤ 0.
		result.Converged = true
		result.FinalResidual = relResidual(rr0, base)
		return result, mkState(rr0, rr0), nil
	}
	if delta <= 0 {
		// A or M lost positive definiteness at startup; no iteration can
		// proceed — surface it instead of returning a silent residual of 1.
		result.FinalResidual = 1
		result.Breakdown = true
		return result, mkState(rr0, rr0), fmt.Errorf("solver: startup curvature δ = %v: %w", delta, ErrBreakdown)
	}

	alpha := gamma / delta
	beta := 0.0
	rr := rr0
	for it := 0; it < maxIters; it++ {
		var gammaNew, rrNew, deltaNew float64
		switch {
		case !folded:
			var err error
			step := cgStep[F]{beta: beta, alpha: alpha, p: pvec, s: svec, d: dr}
			if gammaNew, rrNew, deltaNew, err = e.precondMatvec(m, &step, r, z, w, dr); err != nil {
				return result, nil, err
			}
		case alone:
			gammaNew, rrNew, deltaNew = e.cgIter(minv, r, w, beta, alpha, pvec, svec, dr)
		default:
			gammaNew, rrNew = sys.FusedCGStep(in, minv, r, w, beta, alpha, pvec, svec, e.u, dr)
			e.vectorPass(in)
			if err := e.exchange(1, r); err != nil {
				return result, nil, err
			}
			deltaNew = sys.ApplyPreDot(in, minv, r, w, dr)
			e.tr.AddMatvec(e.cells)
		}
		gammaNew, rrNew, deltaNew = e.reduceCG(defl, gammaNew, rrNew, deltaNew)
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
			return result, mkState(rrNew, rr0), nil
		}

		betaNew := gammaNew / gamma
		denom := deltaNew - betaNew*gammaNew/alpha
		if denom <= 0 || math.IsNaN(denom) {
			// Breakdown: the three-term recurrences lost conjugacy (or A
			// or M is numerically semi-definite). Stop like the textbook
			// PCG loop's pw == 0 guard, and record it.
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
	return result, mkState(rr, rr0), nil
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
	var zscr F // preconditioner scratch, taken on first need
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
		boot, st, err := runCGCore(e, nil, cgIters, 0)
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
		est, err := estimateSpectrum(&result, "chebyshev", boot, st.rr)
		if err != nil {
			return result, err
		}
		sched, err := cheby.NewInterval(est.Min, est.Max)
		if err != nil {
			return result, fmt.Errorf("solver: chebyshev schedule: %w", err)
		}
		coefs := sched.Coefs()

		// --- Chebyshev main loop, continuing from the CG state. ---
		r, z, w := st.r, st.z, st.w
		if isZeroF(z) {
			// The CG engine folds diagonal preconditioners and leaves no z
			// scratch behind, so its slot is free; the startup still
			// needs one.
			if isZeroF(zscr) {
				zscr = sys.Vec(vecZ)
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
			alpha, beta := coefs.Next()
			e.matvec(in, pvec, w)
			if fused {
				// u += p and r −= A·p share one sweep; the direction update
				// p = α·p + β·M⁻¹r folds the preconditioner into a second.
				sys.AxpyAxpy(in, 1, pvec, e.u, -1, w, r)
				e.vectorPass(in)
				sys.AxpbyPre(in, alpha, pvec, beta, minv, r)
				e.vectorPass(in)
			} else {
				sys.Axpy(in, 1, pvec, e.u) // u += p
				sys.Axpy(in, -1, w, r)     // r -= A·p
				e.vectorPass(in)
				e.vectorPass(in)

				e.applyPrecond(in, r, z)
				// p = α·p + β·z (AxpbyPre with the identity).
				var zero F
				sys.AxpbyPre(in, alpha, pvec, beta, zero, z)
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

// estimateSpectrum is the tail of the Chebyshev and PPCG eigenvalue
// bootstrap: a non-finite bootstrap ‖r‖² ends the solve (nonFinite, into
// res); otherwise the bootstrap's CG scalars estimate the extremal
// eigenvalues of M⁻¹A (§III-D), which res.Eigen records.
func estimateSpectrum(res *Result, solver string, boot Result, rr float64) (eigen.Estimate, error) {
	if !isFinite(rr) {
		var err error
		*res, err = nonFinite(*res, solver, "bootstrap ‖r‖²", rr)
		return eigen.Estimate{}, err
	}
	est, err := eigen.EstimateFromCG(boot.Alphas, boot.Betas)
	if err != nil {
		return est, fmt.Errorf("solver: eigenvalue bootstrap failed: %w", err)
	}
	res.Eigen = &est
	return est, nil
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
// EigenCGIters of CG with the configured preconditioner estimate the
// spectrum of M⁻¹A (§III-D); the outer iteration then restarts from the
// bootstrap's iterate (β = 0) on the one CG engine, runCGCore, with the
// inner Chebyshev solve as its explicit-z preconditioner (innerCore), and
// through solveCG, so a deflated solve restarts after a failed re-measure
// exactly as deflated CG does. The restart keeps the bootstrap's stop
// baseline, so both phases measure convergence against one denominator
// and History stays on one scale. Per outer iteration that is one
// reduction round — γ, ‖r‖², δ and, deflated, the restriction b = Wᵀ·w,
// which the engine takes into the round and projects with (reduceCG).
//
// With HaloDepth d > 1 the inner loop uses the matrix-powers kernel
// (§IV-C2): one depth-d exchange buys d inner applications computed on
// extended bounds that shrink by one cell per step, trading a little
// redundant computation for d× fewer messages.
//
// A non-finite outer scalar (non-finite input, or a polynomial
// overflowing on a wild spectrum estimate) ends the solve with an
// ErrBreakdown error at the iteration it first appears, as it ends CG.
func solvePPCGCore[F comparable, B any](e *engine[F, B]) (Result, error) {
	o := e.o
	boot, st, err := runCGCore(e, nil, o.EigenCGIters, 0)
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
	est, err := estimateSpectrum(&result, "ppcg", boot, st.rr)
	if err != nil {
		return result, err
	}
	sched, err := cheby.NewSchedule(est.Min, est.Max, o.InnerSteps)
	if err != nil {
		return result, fmt.Errorf("solver: chebyshev schedule: %w", err)
	}

	m := newInnerCore(e, sched, e.sys.Powers(o.HaloDepth))
	outer, err := solveCG(e, m, o.MaxIters-result.Iterations, st.base)
	result.Iterations += outer.Iterations
	result.TotalInner = m.applies * o.InnerSteps
	result.History = append(result.History, outer.History...)
	result.Converged, result.Breakdown, result.FinalResidual = outer.Converged, outer.Breakdown, outer.FinalResidual
	return result, err
}

// innerCore is PPCG's preconditioner z ≈ B(A)·r: InnerSteps Chebyshev
// smoothing steps (TeaLeaf's tl_ppcg inner solve) in matrix-powers blocks,
// one depth-d halo exchange per block. It runs on the CG engine's fields:
// its rtemp is the engine's w, which the step reads before the set-up
// writes rtemp and the engine's matvec rewrites after the solve, and its
// correction is the engine's z.
type innerCore[F comparable, B any] struct {
	e     *engine[F, B]
	sched *cheby.Schedule
	// block is the bounds of a depth-d block's steps (system.Powers), the
	// same for every block; a block of n < d steps runs on its first n.
	block []B
	// sd is the current search direction. On the fused path it ping-pongs
	// with alt — within a block, step j reads sd for even j and alt for odd
	// j, and the two handles swap after a block of odd length — so
	// whichever field holds the direction when a block starts is the one
	// exchanged. Unfused, sd updates in place and alt is the matvec's
	// target, then the M⁻¹·rtemp scratch.
	sd, alt F
	// minv is the folded diagonal preconditioner for the fused steps (zero
	// = identity); fused reports whether the fused kernel path is usable.
	minv  F
	fused bool
	// applies counts the inner solves run, for Result.TotalInner.
	applies int
}

func newInnerCore[F comparable, B any](e *engine[F, B], sched *cheby.Schedule, block []B) *innerCore[F, B] {
	minv, fused := e.sys.FoldableDiag()
	return &innerCore[F, B]{
		e: e, sched: sched, block: block,
		sd: e.sys.Vec(vecSD), alt: e.sys.Vec(vecAlt),
		minv: minv, fused: fused,
	}
}

// apply runs the engine's step st (none at the engine's startup) and the
// inner Chebyshev iteration on the new residual, running rtemp in w:
//
//	rtemp = r;  sd = M⁻¹rtemp/θ;  z = sd
//	repeat InnerSteps times:
//	    rtemp ← rtemp − A·sd        (on the block's bounds)
//	    sd    ← α_k·sd + β_k·M⁻¹rtemp
//	    z     ← z + sd              (interior only)
//
// leaving the polynomial-preconditioned residual in z. The steps run in
// blocks of up to d: one depth-d exchange of sd and rtemp, then step j of
// the block on block[j]. Every inner solve starts with a fresh exchange,
// because rtemp and sd were rebuilt from the outer residual, so there are
// ⌈InnerSteps/d⌉ exchanges. On the fused path the step and the set-up are
// one pointwise sweep (PPCGStep) and a block's steps one pass over the
// grid (ChebySteps, traced as a matvec per step over its bounds).
// Unfused (jac_block, depth 1), the step is the engine's three vector
// sweeps and each inner step five sweeps.
func (s *innerCore[F, B]) apply(st *cgStep[F], r, z, w F) error {
	e := s.e
	sys := e.sys
	in := e.in
	s.applies++

	if s.fused {
		if st == nil {
			st = &cgStep[F]{} // a zero p: no step
		}
		// Interior only: the depth-d exchange below rewrites every halo
		// cell of sd and rtemp the extended bounds read.
		sys.PPCGStep(in, st.beta, st.alpha, st.p, st.s, e.u, z, w, r, 1/s.sched.Theta, s.minv, s.sd, st.d)
		e.vectorPass(in)
	} else {
		if st != nil {
			e.step(st, z, w, r)
		}
		// rtemp starts as a copy of r; the depth-d exchange below makes its
		// halo consistent before any extended-bounds work.
		sys.CopyAll(w, r)
		e.vectorPass(in)
		e.applyPrecond(in, w, s.alt)
		sys.ScaleTo(in, 1/s.sched.Theta, s.alt, s.sd)
		e.vectorPass(in)
		sys.Copy(in, z, s.sd)
		e.vectorPass(in)
	}

	for step := 0; step < e.o.InnerSteps; {
		if err := e.exchange(len(s.block), s.sd, w); err != nil {
			return err
		}
		bs := s.block[:min(len(s.block), e.o.InnerSteps-step)]
		alphas, betas := s.sched.Alpha[step:step+len(bs)], s.sched.Beta[step:step+len(bs)]
		if s.fused {
			e.chebySteps(bs, alphas, betas, s.sd, s.alt, w, s.minv, z)
			if len(bs)%2 == 1 {
				s.sd, s.alt = s.alt, s.sd
			}
		} else {
			for j, b := range bs {
				e.matvec(b, s.sd, s.alt)
				sys.Axpy(b, -1, s.alt, w) // rtemp -= A·sd
				e.vectorPass(b)
				e.applyPrecond(b, w, s.alt)
				// sd = α·sd + β·M⁻¹rtemp (AxpbyPre with the identity).
				var zero F
				sys.AxpbyPre(b, alphas[j], s.sd, betas[j], zero, s.alt)
				e.vectorPass(b)
				sys.Axpy(in, 1, s.sd, z) // z += sd (interior)
				e.vectorPass(in)
			}
		}
		step += len(bs)
	}
	return nil
}

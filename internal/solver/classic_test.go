package solver

import (
	"tealeaf/internal/cheby"
	"tealeaf/internal/eigen"
	"tealeaf/internal/grid"
)

// This file keeps the seed's textbook PCG loop and the textbook PPCG
// outer loop as test oracles: the engine tests (golden_test.go, the trace
// pins, and the propcheck-driven engine tests and fuzz target in
// engine_oracle_test.go) solve the same problem with the one CG engine
// (runCGCore, solvePPCGCore) and with runCGClassicCore or
// solvePPCGClassicCore and compare.

// solveCGClassic is SolveCG over the oracle loop.
func solveCGClassic(p Problem, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	e := newEngine[*grid.Field2D, grid.Bounds](newSys2D(p, o, new(Workspace)), o, p.U, p.RHS)
	res, _, err := runCGClassicCore(e, o.MaxIters, o.Tol)
	return res, err
}

// solveCGClassic3D is SolveCG3D over the oracle loop.
func solveCGClassic3D(p Problem3D, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate3(p); err != nil {
		return Result{}, err
	}
	res, _, err := runCGClassicCore(newEngine[*grid.Field3D, grid.Bounds3D](newSys3D(p, o, new(Workspace)), o, p.U, p.RHS), o.MaxIters, o.Tol)
	return res, err
}

// runCGClassicCore is the seed's textbook multi-pass PCG loop: five to
// seven sweeps and two to three reduction rounds per iteration, with an
// explicit z = M⁻¹r for every preconditioner. It is the oracle the one
// CG engine (runCGCore) is checked against. With a deflator configured
// the iteration runs on the projected operator P·A (every matvec is
// projected, one extra reduction round per iteration), the initial
// residual is aligned with the deflated subspace by a coarse correction,
// and a final coarse correction recovers the deflation-space component of
// the solution the projected iteration cannot see — the same composition
// the engine applies to its recurrences.
func runCGClassicCore[F comparable, B any](e *engine[F, B], maxIters int, tol float64) (Result, *cgState[F], error) {
	sys := e.sys
	in := e.in
	var result Result

	r := sys.Vec(vecR)
	w := sys.Vec(vecW)
	pvec := sys.Vec(vecP)
	z := r // identity preconditioner: z aliases r
	if !sys.PrecondIsIdentity() {
		z = sys.Vec(vecZ)
	}
	defl := sys.Deflation()

	rr0, err := e.initialResidual(e.u, e.rhs, r)
	if err != nil {
		return result, nil, err
	}
	if defl != nil && isFinite(rr0) && rr0 > 0 {
		// Initial coarse correction: Wᵀ·r = 0 afterwards, and the
		// projected iteration keeps it so. The corrected residual is the
		// convergence baseline.
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
			pw = projectedCurvature(e, defl, pvec, w)
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
			pw = e.reduce(e.sys.ApplyDot(in, pvec, w, deflRows{}))
			e.tr.AddMatvec(e.cells)
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
			// the same 10× margin as the engine.
			if defl != nil {
				result.Converged = rel <= 10*tol
			} else {
				result.Converged = true
			}
			return result, &cgState[F]{r: r, z: z, w: w, pvec: pvec, rr: rr, rr0: rr0, base: base}, nil
		}
		result.Betas = append(result.Betas, beta)

		sys.Xpay(in, z, beta, pvec, deflRows{})
		e.vectorPass(in)
	}
	rel, err := finish(rr)
	if err != nil {
		return result, nil, err
	}
	result.FinalResidual = rel
	return result, &cgState[F]{r: r, z: z, w: w, pvec: pvec, rr: rr, rr0: rr0, base: base}, nil
}

// projectedCurvature is the textbook deflated curvature: w = A·p, the
// whole projection w ← P·w (a restriction sweep, a reduction round of
// the projector's own, the coarse solve and a correction sweep) and
// p·(P·w) in a round of its own. The projector must have the
// whole-projection form ProjectW (*deflate.Deflation and
// *deflate.Deflation3D do).
func projectedCurvature[F comparable, B any](e *engine[F, B], defl deflator[F], p, w F) float64 {
	e.matvec(e.in, p, w)
	defl.(interface{ ProjectW(w F) }).ProjectW(w)
	e.tr.AddDot(e.cells)
	e.tr.AddVectorPass(e.cells)
	return e.dot(p, w)
}

// solvePPCGClassic is SolvePPCG over the oracle PPCG loop.
func solvePPCGClassic(p Problem, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	return solvePPCGClassicCore(newEngine[*grid.Field2D, grid.Bounds](newSys2D(p, o, new(Workspace)), o, p.U, p.RHS))
}

// solvePPCGClassic3D is SolvePPCG3D over the oracle PPCG loop.
func solvePPCGClassic3D(p Problem3D, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate3(p); err != nil {
		return Result{}, err
	}
	return solvePPCGClassicCore(newEngine[*grid.Field3D, grid.Bounds3D](newSys3D(p, o, new(Workspace)), o, p.U, p.RHS))
}

// solvePPCGClassicCore is PPCG with the textbook outer loop the CG engine
// replaced: the same eigenvalue bootstrap and inner Chebyshev solve, then
// PCG with p = z (β = 0) from the bootstrap's residual and, per outer
// iteration, w = A·p with p·w (projected through the whole projection on
// a deflated solve), the u/r update, the inner solve, and r·z with ‖r‖²
// in a round of their own — two rounds per iteration, three deflated. It
// stops on the recurred ‖r‖ against the bootstrap's baseline, with a
// deflated solve's final coarse correction and 10× re-measure margin.
func solvePPCGClassicCore[F comparable, B any](e *engine[F, B]) (Result, error) {
	o, sys, in := e.o, e.sys, e.in
	defl := sys.Deflation()
	boot, st, err := runCGCore(e, nil, o.EigenCGIters, 0)
	if err != nil {
		return boot, err
	}
	result := Result{Iterations: boot.Iterations, BootstrapIters: boot.Iterations, History: boot.History}
	if boot.Converged {
		result.Converged, result.FinalResidual = true, boot.FinalResidual
		return result, nil
	}
	est, err := eigen.EstimateFromCG(boot.Alphas, boot.Betas)
	if err != nil {
		return result, err
	}
	sched, err := cheby.NewSchedule(est.Min, est.Max, o.InnerSteps)
	if err != nil {
		return result, err
	}
	inner := newInnerCore(e, sched, sys.Powers(o.HaloDepth))
	r, base := st.r, st.base
	// The oracle's own fields: z for the inner correction, w for A·p, and
	// rtemp for the inner solve's residual.
	z, w, pvec, rtemp := sys.Vec(vecZ), sys.Vec(vecW), sys.Vec(vecP), sys.Vec(vecS)
	if err := inner.apply(nil, r, z, rtemp); err != nil {
		return result, err
	}
	sys.Copy(in, pvec, z)
	rz := e.dot(r, z)

	for it := result.Iterations; it < o.MaxIters; it++ {
		if err := e.exchange(1, pvec); err != nil {
			return result, err
		}
		var pw float64
		if defl != nil {
			pw = projectedCurvature(e, defl, pvec, w)
		} else {
			pw = e.reduce(sys.ApplyDot(in, pvec, w, deflRows{}))
		}
		if !isFinite(pw) || pw == 0 || (defl != nil && pw < 0) {
			result.Breakdown = true
			break
		}
		alpha := rz / pw
		sys.AxpyAxpy(in, alpha, pvec, e.u, -alpha, w, r)
		if err := inner.apply(nil, r, z, rtemp); err != nil {
			return result, err
		}
		rzNew, rr := e.dot(r, z), e.dot(r, r)
		if !isFinite(rzNew) || !isFinite(rr) {
			return nonFinite(result, "ppcg", "r·z or ‖r‖²", rr)
		}
		result.Iterations++
		rel := relResidual(rr, base)
		result.History = append(result.History, rel)
		result.FinalResidual = rel
		if rel <= o.Tol {
			result.Converged = true
			break
		}
		sys.Xpay(in, z, rzNew/rz, pvec, deflRows{})
		rz = rzNew
	}
	result.TotalInner = inner.applies * o.InnerSteps
	if defl != nil {
		rel, err := e.finishDeflated(defl, r, base)
		if err != nil {
			return result, err
		}
		result.FinalResidual = rel
		result.Converged = result.Converged && rel <= 10*o.Tol
	}
	return result, nil
}

package solver

import "tealeaf/internal/grid"

// This file keeps the seed's textbook PCG loop as a test oracle: the
// engine tests (golden_test.go, the trace pins, and the propcheck-driven
// engine test and fuzz target in engine_oracle_test.go) solve the same
// problem with runCGCore and with runCGClassicCore and compare.

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
			// The projection P·w needs the plain matvec first; the fused
			// matvec+dot cannot be used because the dot must see P·A·p.
			e.matvec(in, pvec, w)
			var zero F
			pw = e.reduce(e.projectW(defl, w, zero, pvec))
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
			return result, &cgState[F]{r: r, z: z, w: w, pvec: pvec, rz: rz, rr: rr, rr0: rr0, base: base}, nil
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
	return result, &cgState[F]{r: r, z: z, w: w, pvec: pvec, rz: rz, rr: rr, rr0: rr0, base: base}, nil
}

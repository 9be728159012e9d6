// Package cheby implements the Chebyshev polynomial machinery behind
// TeaLeaf's Chebyshev solver and the CPPCG preconditioner (§III of the
// paper): the first-kind polynomial recurrence T_m, the shifted/scaled
// iteration coefficient schedule, and the analytic iteration/condition
// bounds of equations (4)–(7), which predict the reduction in global dot
// products CPPCG achieves over plain PCG.
package cheby

import (
	"errors"
	"fmt"
	"math"
)

// T evaluates the Chebyshev polynomial of the first kind T_m(x) for any
// real x, using the trigonometric/hyperbolic closed forms (stable for
// |x| > 1, where the three-term recurrence overflows gracefully but
// loses accuracy).
func T(m int, x float64) float64 {
	if m < 0 {
		m = -m // T_{-m} = T_m
	}
	switch {
	case x >= 1:
		return math.Cosh(float64(m) * math.Acosh(x))
	case x <= -1:
		s := 1.0
		if m%2 == 1 {
			s = -1
		}
		return s * math.Cosh(float64(m)*math.Acosh(-x))
	default:
		return math.Cos(float64(m) * math.Acos(x))
	}
}

// TRecurrence evaluates T_m(x) by the three-term recurrence
// T_{k+1} = 2x·T_k − T_{k-1}; used by tests to cross-check T.
func TRecurrence(m int, x float64) float64 {
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return 1
	}
	tm1, tm := 1.0, x
	for k := 1; k < m; k++ {
		tm1, tm = tm, 2*x*tm-tm1
	}
	return tm
}

// Xi is the spectrum mapping function of eq. (3): an affine map taking
// [λmin, λmax] onto [-1, +1].
func Xi(lambda, lambdaMin, lambdaMax float64) float64 {
	return (2*lambda - (lambdaMax + lambdaMin)) / (lambdaMax - lambdaMin)
}

// Schedule holds the per-iteration coefficients of the shifted and scaled
// Chebyshev iteration over [λmin, λmax]:
//
//	θ = (λmax+λmin)/2, δ = (λmax−λmin)/2, σ = θ/δ
//	ρ₀ = 1/σ, ρ_k = 1/(2σ − ρ_{k−1})
//	α_k = ρ_k·ρ_{k−1},  β_k = 2ρ_k/δ
//
// so the iteration is p ← α_k p + β_k z, u ← u + p (with p₀ = z/θ).
// This is exactly TeaLeaf's tqli-free coefficient precomputation
// (tea_calc_ch_coefs).
type Schedule struct {
	LambdaMin, LambdaMax float64
	Theta, Delta, Sigma  float64
	Alpha, Beta          []float64 // length = MaxSteps
}

// NewInterval returns the schedule of [lambdaMin, lambdaMax] with no
// coefficient tables: an iteration of unknown length takes its
// coefficients from Coefs as it consumes them.
func NewInterval(lambdaMin, lambdaMax float64) (*Schedule, error) {
	switch {
	case !(lambdaMin > 0) || math.IsInf(lambdaMin, 0) || math.IsNaN(lambdaMin):
		return nil, fmt.Errorf("cheby: lambdaMin = %v must be positive and finite (SPD operator)", lambdaMin)
	case !(lambdaMax > lambdaMin) || math.IsInf(lambdaMax, 0) || math.IsNaN(lambdaMax):
		return nil, fmt.Errorf("cheby: need lambdaMax > lambdaMin > 0, got [%v, %v]", lambdaMin, lambdaMax)
	}
	s := &Schedule{
		LambdaMin: lambdaMin, LambdaMax: lambdaMax,
		Theta: (lambdaMax + lambdaMin) / 2,
		Delta: (lambdaMax - lambdaMin) / 2,
	}
	s.Sigma = s.Theta / s.Delta
	return s, nil
}

// NewSchedule precomputes steps Chebyshev coefficients for the interval
// [lambdaMin, lambdaMax].
func NewSchedule(lambdaMin, lambdaMax float64, steps int) (*Schedule, error) {
	s, err := NewInterval(lambdaMin, lambdaMax)
	if err != nil {
		return nil, err
	}
	if steps < 1 {
		return nil, errors.New("cheby: need at least one step")
	}
	s.Alpha = make([]float64, steps)
	s.Beta = make([]float64, steps)
	c := s.Coefs()
	for k := range steps {
		s.Alpha[k], s.Beta[k] = c.Next()
	}
	return s, nil
}

// Steps returns the number of precomputed iterations.
func (s *Schedule) Steps() int { return len(s.Alpha) }

// Coefs generates the schedule's coefficients in order, one step per
// Next, by the recurrence above.
type Coefs struct{ sigma, delta, rho float64 }

// Coefs returns the generator of (α_k, β_k) from k = 0.
func (s *Schedule) Coefs() Coefs { return Coefs{sigma: s.Sigma, delta: s.Delta, rho: 1 / s.Sigma} }

// Next returns the next step's (α_k, β_k).
func (c *Coefs) Next() (alpha, beta float64) {
	rhoNew := 1 / (2*c.sigma - c.rho)
	alpha, beta = rhoNew*c.rho, 2*rhoNew/c.delta
	c.rho = rhoNew
	return alpha, beta
}

// ErrorBound returns the standard Chebyshev iteration error contraction
// after m steps: 1/|T_m(σ)| — the max-norm of the residual polynomial over
// [λmin, λmax] relative to its value at 0 grows like T_m(ξ(0)), giving the
// classic 2c^m/(1+c^{2m}) decay with c = (√κ−1)/(√κ+1).
func (s *Schedule) ErrorBound(m int) float64 {
	return 1 / math.Abs(T(m, math.Abs(Xi(0, s.LambdaMin, s.LambdaMax))))
}

// EpsilonM is eq. (5): the bound ε_m ≤ |T_m((λmax+λmin)/(λmax−λmin))|⁻¹
// governing the PCG condition number after m-step Chebyshev polynomial
// preconditioning.
func EpsilonM(m int, lambdaMin, lambdaMax float64) float64 {
	return 1 / math.Abs(T(m, (lambdaMax+lambdaMin)/(lambdaMax-lambdaMin)))
}

// KappaPCG is eq. (4): the upper bound on the preconditioned condition
// number κ_pcg = (1+ε_m)/(1−ε_m).
func KappaPCG(m int, lambdaMin, lambdaMax float64) float64 {
	eps := EpsilonM(m, lambdaMin, lambdaMax)
	return (1 + eps) / (1 - eps)
}

// TotalIterationBound is eq. (6): k_total = √κ_cg/2 · ln(2/ε), the bound on
// total sparse matrix-vector products to reach relative accuracy eps.
func TotalIterationBound(lambdaMin, lambdaMax, eps float64) float64 {
	kappa := lambdaMax / lambdaMin
	return math.Sqrt(kappa) / 2 * math.Log(2/eps)
}

// OuterIterationBound is eq. (7): k_outer = √κ_pcg/2 · ln(2/ε), the bound
// on outer CG iterations — and hence global dot products — of the
// m-step Chebyshev-preconditioned CG.
func OuterIterationBound(m int, lambdaMin, lambdaMax, eps float64) float64 {
	return math.Sqrt(KappaPCG(m, lambdaMin, lambdaMax)) / 2 * math.Log(2/eps)
}

// DotProductReduction returns √(κ_cg/κ_pcg), the paper's measure of the
// relative reduction in global dot products of CPPCG versus plain CG
// (§III-C: "the ratio of √(κcg/κpcg) gives us the approximate ratio of
// outer to inner iterations").
func DotProductReduction(m int, lambdaMin, lambdaMax float64) float64 {
	return math.Sqrt((lambdaMax / lambdaMin) / KappaPCG(m, lambdaMin, lambdaMax))
}

// PreconditionedResidualPoly evaluates 1 − T_m(ξ(λ))/T_m(ξ(0)), the
// polynomial B(λ)·λ of eq. (2). B(A) is the Chebyshev preconditioner: the
// closer B(λ)·λ is to 1 over the spectrum, the better conditioned the
// preconditioned system.
func PreconditionedResidualPoly(m int, lambda, lambdaMin, lambdaMax float64) float64 {
	return 1 - T(m, Xi(lambda, lambdaMin, lambdaMax))/T(m, Xi(0, lambdaMin, lambdaMax))
}

// Package solver implements TeaLeaf's stand-alone matrix-free iterative
// solvers (§II of the paper): Jacobi, CG, Chebyshev, and the
// communication-avoiding Chebyshev Polynomially Preconditioned CG
// (PPCG/CPPCG, §III) with optional block-Jacobi preconditioning, the
// matrix-powers deep-halo kernel (§IV-C), and subdomain deflation as a
// composable outer projector (§VII future work).
//
// Every solver runs the same code path single-rank and distributed: all
// neighbour data flows through comm.Communicator.Exchange and every global
// scalar through AllReduceSum, so the communication structure the paper
// analyses is explicit in the code and recorded in the run's stats.Trace.
//
// The iteration bodies are dimension-agnostic: loops.go holds the single
// implementation of each solver loop, written against the system
// abstraction in system.go, and the 2D/3D entry points (SolveCG /
// SolveCG3D, ...) are thin constructors over the sys2d/sys3d backends.
//
// The loops take their grid-sized work fields from a Workspace
// (workspace.go), which keeps them from one solve to the next: a caller
// that solves once per time step (core.Instance) allocates them in its
// first step and clears them in every later one, bit-identical to fresh
// fields. PPCG's outer iteration is the CG engine with the inner
// Chebyshev solve as its preconditioner, whose rtemp runs in the engine's
// w (not read between the step and the next matvec), so CPPCG keeps
// seven work fields per rank: r, w, p, s, the inner correction z and the
// two ping-pong directions. The package-level Solve* functions run on a
// fresh Workspace of their own.
package solver

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"tealeaf/internal/comm"
	"tealeaf/internal/eigen"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// Kind names a solver algorithm.
type Kind string

// The solver algorithms TeaLeaf integrates.
const (
	KindJacobi Kind = "jacobi"
	KindCG     Kind = "cg"
	KindCheby  Kind = "chebyshev"
	KindPPCG   Kind = "ppcg"
)

// ParseKind maps a TeaLeaf input-deck solver name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "jacobi", "tl_use_jacobi":
		return KindJacobi, nil
	case "cg", "tl_use_cg":
		return KindCG, nil
	case "chebyshev", "cheby", "tl_use_chebyshev":
		return KindCheby, nil
	case "ppcg", "cppcg", "tl_use_ppcg":
		return KindPPCG, nil
	}
	return "", fmt.Errorf("solver: unknown solver %q", s)
}

// Deflator is the outer deflation projector Options.Deflation carries,
// satisfied by *deflate.Deflation (the contract is defined here rather
// than importing internal/deflate so any coarse-space projector can be
// composed in). CoarseCorrect applies u += W·E⁻¹·Wᵀ·r, zeroing the
// deflation-space component of the residual. It is collective: in a
// distributed solve every rank must reach it together (it performs
// exactly one reduction round through the solve's communicator).
//
// The CG engine — CG's and PPCG's outer iteration — applies the
// projection P = I − A·W·E⁻¹·Wᵀ without a round of the projector's own,
// in three parts that ride its sweeps and its reduction: RestrictRow takes
// row y of the interior of w into the restriction as the matvec finishes
// it; Restriction returns the rank-local Wᵀ·w those rows make, which the
// engine sums inside its one scalar round; SolveCoarse solves E·λ = b on
// the summed b (replicated, no communication), returns bᵀλ and leaves
// the correction w −= A·W·λ pending, which the next sweep to read w
// applies to each interior row y just before reading it: whole
// (CorrectRow), or as the block-face terms (CorrectRowFaces) with the
// returned λ_c taken off w in the sweep's own arithmetic.
// RestrictRow, CorrectRow and CorrectRowFaces are called concurrently
// for distinct rows.
type Deflator interface {
	CoarseCorrect(r, u *grid.Field2D)
	RestrictRow(w *grid.Field2D, y int)
	Restriction() []float64
	SolveCoarse(b []float64) float64
	CorrectRow(w *grid.Field2D, y int)
	CorrectRowFaces(w *grid.Field2D, y int) []float64
}

// Deflator3D is the 3D outer deflation projector Options.Deflation3D
// carries, satisfied by *deflate.Deflation3D — the Field3D twin of
// Deflator, with the same contract; its per-row methods take the row
// (j, k) = (y, z).
type Deflator3D interface {
	CoarseCorrect(r, u *grid.Field3D)
	RestrictRow(w *grid.Field3D, j, k int)
	Restriction() []float64
	SolveCoarse(b []float64) float64
	CorrectRow(w *grid.Field3D, j, k int)
	CorrectRowFaces(w *grid.Field3D, j, k int) []float64
}

// Problem is one linear solve A·u = rhs on a rank-local grid. U holds the
// initial guess on entry and the solution on exit. The operator's
// coefficient fields must be valid over the padded region (see
// stencil.BuildOperator2D), and RHS over the interior.
type Problem struct {
	Op  *stencil.Operator2D
	U   *grid.Field2D
	RHS *grid.Field2D
}

// Options configures a solve. The zero value picks TeaLeaf-like defaults;
// see the field comments.
type Options struct {
	// Tol is the relative residual tolerance ‖r‖₂/‖r₀‖₂ (default 1e-10).
	Tol float64
	// MaxIters bounds the outer iterations (default 10000).
	MaxIters int
	// Pool is the node-level thread team (default par.Serial).
	Pool *par.Pool
	// Comm is the rank communicator (default a fresh comm.Serial).
	Comm comm.Communicator
	// Precond is the inner preconditioner M (default identity). For PPCG
	// this is the preconditioner applied inside the Chebyshev smoothing
	// steps, as in TeaLeaf.
	Precond precond.Preconditioner
	// Precond3D is the preconditioner the 3D solve paths use (default
	// identity). The unified registry (precond.Specs) serves both
	// dimensionalities; every registered name — none, jac_diag, jac_block —
	// now builds in 3D too.
	Precond3D precond.Preconditioner3D
	// Deflation composes subdomain deflation (the §VII future-work
	// direction) as an outer projector around the 2D CG or PPCG solve:
	// the Krylov iteration runs on P·A with the low-energy subdomain
	// modes projected out, and coarse corrections before/after the loop
	// recover them exactly. Build one with deflate.New over the solve
	// operator (*deflate.Deflation satisfies Deflator); the projector is
	// fully distributed — restriction and prolongation are rank-local,
	// and the projection rides the CG engine's one reduction round per
	// iteration, CG's and PPCG's outer iteration alike.
	Deflation Deflator
	// Deflation3D is the projector the 3D solve paths compose (built with
	// deflate.New3D; *deflate.Deflation3D satisfies Deflator3D). Same
	// composition rules as Deflation: CG and PPCG, any rank count.
	Deflation3D Deflator3D
	// EigenCGIters is the number of bootstrap CG iterations used to
	// estimate the extremal eigenvalues before Chebyshev/PPCG take over
	// (default 20; §III-D). The Chebyshev solver re-bootstraps with twice
	// as many iterations when its residual-growth guard detects a
	// divergent λmax underestimate (see Result.Rebootstraps).
	EigenCGIters int
	// InnerSteps is the PPCG Chebyshev inner-step count per outer
	// iteration (default 10, TeaLeaf's tl_ppcg_inner_steps).
	InnerSteps int
	// HaloDepth is PPCG's inner matrix-powers depth (default 1 = one
	// exchange per Chebyshev step; §IV-C2): one depth-d exchange buys d
	// inner steps on extended bounds. Every other exchange of every solver
	// is depth 1 (PPCG's CG bootstrap included), so depth > 1 is rejected
	// for every kind but KindPPCG. It is incompatible with preconditioners
	// whose registry entry is not deep-halo compatible (jac_block in
	// either dimension).
	HaloDepth int
	// CheckEvery is the Chebyshev convergence-test cadence in iterations
	// (default 10): the stand-alone Chebyshev solver is reduction-free
	// except for these periodic checks.
	CheckEvery int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 10000
	}
	if o.Pool == nil {
		o.Pool = par.Serial
	}
	if o.Comm == nil {
		o.Comm = comm.NewSerial()
	}
	if o.Precond == nil {
		o.Precond = precond.NewNone()
	}
	if o.Precond3D == nil {
		o.Precond3D = precond.NewNone3D()
	}
	if o.EigenCGIters <= 0 {
		o.EigenCGIters = 20
	}
	if o.InnerSteps <= 0 {
		o.InnerSteps = 10
	}
	if o.HaloDepth <= 0 {
		o.HaloDepth = 1
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 10
	}
	return o
}

// validateCommon checks the dimension-independent option constraints:
// halo depth against the grid, preconditioner capability against the
// unified registry, and the deflation composition rules.
func (o Options) validateCommon(gridHalo int, precondName string, dims int) error {
	if o.HaloDepth > gridHalo {
		return fmt.Errorf("solver: halo depth %d exceeds grid halo %d", o.HaloDepth, gridHalo)
	}
	if o.HaloDepth > 1 {
		// §IV-C2: block preconditioners need up-to-date whole strips every
		// application, which would force an exchange per inner step and
		// cancel the matrix-powers benefit. The registry's DeepHalo flag
		// records exactly that, for both dimensionalities.
		if spec, ok := precond.Lookup(precondName); ok && !spec.DeepHalo {
			var compatible []string
			for _, s := range precond.Specs() {
				if s.DeepHalo {
					compatible = append(compatible, s.Name)
				}
			}
			return fmt.Errorf("solver: preconditioner %q is incompatible with matrix-powers halo depth %d > 1 (it needs fresh strip data every application); deep-halo-compatible preconditioners: %s",
				precondName, o.HaloDepth, strings.Join(compatible, ", "))
		}
	}
	// Deflation is dimension-agnostic and distributed; the only remaining
	// rule is that the projector's dimensionality must match the solve's.
	if dims == 2 && o.Deflation3D != nil {
		return errors.New("solver: a 3D deflation projector cannot drive a 2D solve (set Options.Deflation, built with deflate.New)")
	}
	if dims == 3 && o.Deflation != nil {
		return errors.New("solver: a 2D deflation projector cannot drive a 3D solve (set Options.Deflation3D, built with deflate.New3D)")
	}
	return nil
}

func (o Options) validate(p Problem) error {
	if p.Op == nil || p.U == nil || p.RHS == nil {
		return errors.New("solver: problem needs operator, solution and RHS fields")
	}
	g := p.Op.Grid
	if p.U.Grid != g || p.RHS.Grid != g {
		return errors.New("solver: all problem fields must share the operator's grid")
	}
	return o.validateCommon(g.Halo, o.Precond.Name(), 2)
}

// ErrBreakdown reports that a Krylov solver observed a non-positive (or
// NaN) curvature scalar at startup — the operator or preconditioner is
// not positive definite as seen from the initial residual, so no
// iteration can proceed — or that a solver saw a NON-FINITE reduced
// scalar (γ, δ, ‖r‖²: non-finite input, or PPCG's polynomial overflowing
// on a wild spectrum estimate), at the iteration it first appeared: the
// iterate is lost and more sweeps cannot recover it. Other in-loop
// breakdowns (conjugacy lost after useful progress) do not error; they
// stop the iteration and set Result.Breakdown, like TeaLeaf's pw == 0
// guard.
var ErrBreakdown = errors.New("solver: lost positive definiteness (breakdown)")

// Result reports a solve's outcome and the op counts the scaling model
// consumes.
type Result struct {
	// Converged reports whether the tolerance was met within MaxIters.
	Converged bool
	// Breakdown reports that the iteration stopped early because a
	// curvature or conjugacy scalar lost positivity (see ErrBreakdown).
	// FinalResidual still holds the best residual reached, so callers can
	// distinguish "diverged" from "broke down after partial progress".
	Breakdown bool
	// Iterations is the number of outer iterations, including any
	// eigenvalue-bootstrap CG iterations.
	Iterations int
	// BootstrapIters is the CG iterations spent estimating eigenvalues
	// (Chebyshev/PPCG only), across all bootstrap attempts.
	BootstrapIters int
	// Rebootstraps counts Chebyshev bootstrap retries: the residual-growth
	// guard detected a divergent λmax underestimate and re-ran the CG
	// bootstrap with twice the iterations (§III-D robustness).
	Rebootstraps int
	// TotalInner is the total Chebyshev inner steps (PPCG) or main
	// Chebyshev iterations (Chebyshev solver).
	TotalInner int
	// FinalResidual is the final relative residual ‖r‖/‖r₀‖.
	FinalResidual float64
	// History is the relative residual after each outer iteration (as
	// observed by the solver; the Chebyshev solver only samples it every
	// CheckEvery iterations).
	History []float64
	// Alphas, Betas are the recorded CG step scalars (CG and the
	// bootstrap phase of Chebyshev/PPCG); they define the Lanczos matrix.
	Alphas, Betas []float64
	// Eigen is the extremal eigenvalue estimate used (Chebyshev/PPCG).
	Eigen *eigen.Estimate
}

// isNone reports whether m is the identity preconditioner.
func isNone(m precond.Preconditioner) bool {
	_, ok := m.(precond.None)
	return ok
}

// Solve dispatches on kind, on a fresh Workspace.
func Solve(kind Kind, p Problem, o Options) (Result, error) {
	return new(Workspace).Solve(kind, p, o)
}

// validateKind checks the options against the solver kind: deflation
// composes with CG and PPCG only (they run on the projected operator, in
// 2D and 3D, single- or multi-rank; Jacobi and the stand-alone Chebyshev
// iteration do not), and a halo depth above 1 is PPCG's inner
// matrix-powers depth, which no other kind has.
func (o Options) validateKind(kind Kind) error {
	if kind != KindPPCG && o.HaloDepth > 1 {
		return fmt.Errorf("solver: halo depth %d given to the %s solver: tl_ppcg_halo_depth is PPCG's inner matrix-powers depth, and every other solver exchanges at depth 1; set it to 1 or switch to tl_use_ppcg", o.HaloDepth, kind)
	}
	if (kind == KindJacobi || kind == KindCheby) && (o.Deflation != nil || o.Deflation3D != nil) {
		return fmt.Errorf("solver: deflation composes with the cg and ppcg solvers only (got %s); drop tl_use_deflation or switch to tl_use_cg / tl_use_ppcg", kind)
	}
	return nil
}

// relResidual converts a squared norm and baseline into a relative
// residual, guarding the zero-RHS case.
func relResidual(rr, rr0 float64) float64 {
	if rr0 == 0 {
		return 0
	}
	return math.Sqrt(rr / rr0)
}

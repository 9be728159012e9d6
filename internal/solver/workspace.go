package solver

import (
	"fmt"

	"tealeaf/internal/grid"
	"tealeaf/internal/precond"
)

// Workspace holds a solver's work fields from one solve to the next, so
// that a run of time steps allocates them once. A field is made the
// first time a solve takes its slot, on the operator's grid; every later
// take clears it whole, halos included, so a reused field reads exactly
// what a fresh allocation would, and a solve through a workspace is
// bit-identical to one through fresh fields. A take on another grid
// makes the slot again.
//
// A workspace from NewWorkspace makes the first field of each slot its
// solve kind takes (vecsFor) in an arena slot, so an instance's work
// fields share its one allocation; the zero value, and a slot the kind
// does not take, makes its fields with grid.NewField2D or NewField3D. The
// zero value holds nothing, so a caller that builds one at set-up
// allocates nothing until its first solve. A Workspace serves one solve
// at a time. Solve, SolveCG and the other package-level entry points run
// on a fresh Workspace of their own.
type Workspace struct {
	f2 [numVecs]*grid.Field2D
	f3 [numVecs]*grid.Field3D
	// arena holds the first field of each slot the kind takes: slot s's
	// is arena slot at[s]−1, and at[s] == 0 for a slot it does not hold.
	arena *grid.Arena
	at    [numVecs]int
}

// The workspace's slots. Each engine takes its work fields from these,
// and a field an engine no longer reads serves the next as it is (see
// vecsFor for which slots each kind takes):
//
//   - CG takes r, w, p and s, and z for a preconditioner that does not
//     fold (jac_block's explicit z = M⁻¹r, or PPCG's inner solve).
//   - PPCG's outer iteration is CG with the inner Chebyshev solve as M:
//     the inner correction is CG's z, and the inner solve takes the
//     ping-pong directions sd and alt. Its rtemp is CG's w: the step
//     sweep reads w[i] before it writes rtemp[i], and the matvec after
//     the inner solve rewrites w. Unfolded, its M⁻¹·rtemp scratch is
//     alt, which each step's matvec has finished with. CG keeps s = A·p
//     live across the inner solve, so PPCG takes all seven slots.
//   - Chebyshev's CG bootstrap takes CG's slots, and its continuation
//     takes z for its scratch when CG folded a diagonal and left no z
//     behind; with the identity z is r.
//   - Jacobi takes r for its final residual and w for the previous
//     iterate.
const (
	vecR = iota
	vecW
	vecP
	vecS
	vecZ
	vecSD
	vecAlt
	numVecs
)

// vecsFor returns the slots a solve of kind takes with the preconditioner
// m, in slot order: the one statement of each engine's slot set, which
// sizes an instance's arena (WorkspaceFields) and places its fields
// (NewWorkspace).
func vecsFor(kind Kind, m precond.Spec) []int {
	switch kind {
	case KindJacobi:
		return []int{vecR, vecW}
	case KindPPCG:
		return []int{vecR, vecW, vecP, vecS, vecZ, vecSD, vecAlt}
	}
	vecs := []int{vecR, vecW, vecP, vecS}
	if !m.Folds || kind == KindCheby && m.Field {
		vecs = append(vecs, vecZ)
	}
	return vecs
}

// WorkspaceFields returns how many fields a solve of kind takes from its
// workspace with the preconditioner m: the arena slots NewWorkspace
// places them in.
func WorkspaceFields(kind Kind, m precond.Spec) int { return len(vecsFor(kind, m)) }

// NewWorkspace returns a workspace that makes the first field of each
// slot a solve of kind with the preconditioner m takes in the arena,
// from arena slot first on (WorkspaceFields of them).
func NewWorkspace(arena *grid.Arena, first int, kind Kind, m precond.Spec) Workspace {
	ws := Workspace{arena: arena}
	for i, slot := range vecsFor(kind, m) {
		ws.at[slot] = 1 + first + i
	}
	return ws
}

// Solve runs the kind of solver on p with the work fields of ws.
func (ws *Workspace) Solve(kind Kind, p Problem, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	e := newEngine[*grid.Field2D, grid.Bounds](newSys2D(p, o, ws), o, p.U, p.RHS)
	return solveKind(kind, e)
}

// Solve3D runs the kind of solver on the 3D problem p with the work
// fields of ws.
func (ws *Workspace) Solve3D(kind Kind, p Problem3D, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate3(p); err != nil {
		return Result{}, err
	}
	e := newEngine[*grid.Field3D, grid.Bounds3D](newSys3D(p, o, ws), o, p.U, p.RHS)
	return solveKind(kind, e)
}

// solveKind runs the loop of kind on e.
func solveKind[F comparable, B any](kind Kind, e *engine[F, B]) (Result, error) {
	if err := e.o.validateKind(kind); err != nil {
		return Result{}, err
	}
	switch kind {
	case KindJacobi:
		return solveJacobi(e)
	case KindCG:
		return solveCG(e, nil, e.o.MaxIters, 0)
	case KindCheby:
		return solveChebyCore(e)
	case KindPPCG:
		return solvePPCGCore(e)
	}
	return Result{}, fmt.Errorf("solver: unknown kind %q", kind)
}

// solveCG runs CG — PPCG's outer iteration when m is its inner solve —
// to the iteration budget maxIters, from the stop baseline base (see
// runCGCore). A deflated solve can meet the tolerance on its recurred
// residual and then fail finishDeflated's re-measure of the true one (the
// coarse projector's roundoff drifts the two apart); while it ends so —
// not converged, not broken down, budget left — CG restarts from the
// corrected iterate with the iterations left. The restart's startup
// takes the same ‖b‖ baseline, so History stays on one scale; Alphas and
// Betas stay the first run's, one Krylov sequence.
func solveCG[F comparable, B any](e *engine[F, B], m *innerCore[F, B], maxIters int, base float64) (Result, error) {
	res, _, err := runCGCore(e, m, maxIters, base)
	for err == nil && e.sys.Deflation() != nil && !res.Converged && !res.Breakdown && res.Iterations < maxIters {
		var more Result
		more, _, err = runCGCore(e, m, maxIters-res.Iterations, base)
		res.Iterations += more.Iterations
		res.History = append(res.History, more.History...)
		res.Converged, res.Breakdown, res.FinalResidual = more.Converged, more.Breakdown, more.FinalResidual
	}
	return res, err
}

// Data returns the storage of every field ws holds, in slot order.
func (ws *Workspace) Data() [][]float64 {
	var out [][]float64
	for i := range numVecs {
		if f := ws.f2[i]; f != nil {
			out = append(out, f.Data)
		}
		if f := ws.f3[i]; f != nil {
			out = append(out, f.Data)
		}
	}
	return out
}

// vec2 takes slot's field on grid g.
func (ws *Workspace) vec2(slot int, g *grid.Grid2D) *grid.Field2D {
	f := ws.f2[slot]
	switch {
	case f == nil && ws.at[slot] > 0:
		f = ws.arena.Field2D(ws.at[slot]-1, g)
	case f == nil || f.Grid != g:
		f = grid.NewField2D(g)
	default:
		clear(f.Data)
		return f
	}
	ws.f2[slot] = f
	return f
}

// vec3 takes slot's field on the 3D grid g.
func (ws *Workspace) vec3(slot int, g *grid.Grid3D) *grid.Field3D {
	f := ws.f3[slot]
	switch {
	case f == nil && ws.at[slot] > 0:
		f = ws.arena.Field3D(ws.at[slot]-1, g)
	case f == nil || f.Grid != g:
		f = grid.NewField3D(g)
	default:
		clear(f.Data)
		return f
	}
	ws.f3[slot] = f
	return f
}

package solver

import (
	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// sys2d backs the dimension-agnostic solver core with the 2D kernels,
// the 5-point operator and the 2D exchange path. Every method is a
// mechanical pass-through; the loop logic lives in loops.go.
type sys2d struct {
	p    *par.Pool
	op   *stencil.Operator2D
	m    precond.Preconditioner
	c    comm.Communicator
	defl Deflator
	ws   *Workspace
}

func newSys2D(p Problem, o Options, ws *Workspace) *sys2d {
	return &sys2d{p: o.Pool, op: p.Op, m: o.Precond, c: o.Comm, defl: o.Deflation, ws: ws}
}

func (s *sys2d) Vec(slot int) *grid.Field2D { return s.ws.vec2(slot, s.op.Grid) }
func (s *sys2d) Interior() grid.Bounds      { return s.op.Grid.Interior() }
func (s *sys2d) GridHalo() int              { return s.op.Grid.Halo }
func (s *sys2d) Cells(b grid.Bounds) int    { return b.Cells() }

func (s *sys2d) Exchange(depth int, fields ...*grid.Field2D) error {
	return s.c.Exchange(depth, fields...)
}

func (s *sys2d) Powers(depth int) []grid.Bounds {
	phys := s.c.Physical()
	bs := make([]grid.Bounds, depth)
	for j := range bs {
		e := depth - 1 - j
		bs[j] = s.Interior().ExpandSides(reach(phys.Left, e), reach(phys.Right, e),
			reach(phys.Down, e), reach(phys.Up, e), s.op.Grid)
	}
	return bs
}

// reach is how far a matrix-powers step grows the interior into a side:
// e cells into a rank neighbour's halo, none into a physical side, whose
// halo is a zero-flux mirror rather than neighbour data.
func reach(physical bool, e int) int {
	if physical {
		return 0
	}
	return e
}

func (s *sys2d) Alone() bool { return stencil.PhysicalSides(s.c.Physical()) == stencil.AllPhysical }

func (s *sys2d) Residual(b grid.Bounds, u, rhs, r *grid.Field2D) {
	s.op.Residual(s.p, b, u, rhs, r)
}

func (s *sys2d) Apply(b grid.Bounds, p, w *grid.Field2D) { s.op.Apply(s.p, b, p, w) }

func (s *sys2d) ApplyDot(b grid.Bounds, p, w *grid.Field2D, d deflRows) float64 {
	return s.op.ApplyDotRows(s.p, b, p, w, s.restrict(d, w))
}

func (s *sys2d) ApplyPreDot(b grid.Bounds, minv, r, w *grid.Field2D, d deflRows) float64 {
	return s.op.ApplyPreDotRows(s.p, b, minv, r, w, s.restrict(d, w))
}

func (s *sys2d) ApplyPreDotInit(b grid.Bounds, minv, r, w *grid.Field2D, d deflRows) (gamma, delta, rr float64) {
	return s.op.ApplyPreDotInitRows(s.p, b, minv, r, w, s.restrict(d, w))
}

func (s *sys2d) Dot(b grid.Bounds, x, y *grid.Field2D) float64 {
	return kernels.Dot(s.p, b, x, y)
}

func (s *sys2d) Dot2(b grid.Bounds, x, y, z *grid.Field2D) (xy, yz float64) {
	return kernels.Dot2(s.p, b, x, y, z)
}

func (s *sys2d) Axpy(b grid.Bounds, alpha float64, x, y *grid.Field2D) {
	kernels.Axpy(s.p, b, alpha, x, y)
}

func (s *sys2d) Xpay(b grid.Bounds, x *grid.Field2D, beta float64, y *grid.Field2D, d deflRows) {
	kernels.XpayRows(s.p, b, x, beta, y, s.correct(d, x))
}

func (s *sys2d) Copy(b grid.Bounds, dst, src *grid.Field2D) { kernels.Copy(s.p, b, dst, src) }

func (s *sys2d) CopyAll(dst, src *grid.Field2D) { dst.CopyFrom(src) }

func (s *sys2d) ScaleTo(b grid.Bounds, alpha float64, src, dst *grid.Field2D) {
	kernels.ScaleTo(s.p, b, alpha, src, dst)
}

func (s *sys2d) AxpyAxpy(b grid.Bounds, a1 float64, x1, y1 *grid.Field2D, a2 float64, x2, y2 *grid.Field2D) {
	kernels.AxpyAxpy(s.p, b, a1, x1, y1, a2, x2, y2)
}

func (s *sys2d) AxpbyPre(b grid.Bounds, a float64, y *grid.Field2D, beta float64, minv, r *grid.Field2D) {
	kernels.AxpbyPre(s.p, b, a, y, beta, minv, r)
}

func (s *sys2d) FusedCGStep(b grid.Bounds, minv, r, w *grid.Field2D, beta, alpha float64, p, sv, x *grid.Field2D, d deflRows) (gamma, rr float64) {
	return kernels.FusedCGStepRows(s.p, b, minv, r, w, beta, alpha, p, sv, x, s.correctFaces(d, w))
}

// correct is the row callback that applies s.defl's pending correction
// to w's interior rows, when d asks for it (nil otherwise). The sweeps
// that take it run over the interior.
func (s *sys2d) correct(d deflRows, w *grid.Field2D) func(y int) {
	if !d.correct {
		return nil
	}
	return func(y int) { s.defl.CorrectRow(w, y) }
}

// correctFaces is correct for a step sweep: the callback applies the
// face terms and returns the λ_c row the step takes off w itself.
func (s *sys2d) correctFaces(d deflRows, w *grid.Field2D) func(y int) []float64 {
	if !d.correct {
		return nil
	}
	return func(y int) []float64 { return s.defl.CorrectRowFaces(w, y) }
}

// restrict is the row callback that hands w's interior rows to s.defl's
// restriction, when d asks for it (nil otherwise).
func (s *sys2d) restrict(d deflRows, w *grid.Field2D) func(y int) {
	if !d.restrict {
		return nil
	}
	return func(y int) { s.defl.RestrictRow(w, y) }
}

func (s *sys2d) CGIter(minv, r, w *grid.Field2D, beta, alpha float64, p, sv, x *grid.Field2D, d deflRows) (gamma, rr, delta float64) {
	return s.op.CGIter(s.p, minv, r, w, beta, alpha, p, sv, x, s.correctFaces(d, w), s.restrict(d, w))
}

func (s *sys2d) ChebySteps(bs []grid.Bounds, in grid.Bounds, alphas, betas []float64, sd, alt, rtemp, minv, acc *grid.Field2D) {
	s.op.ChebySteps(s.p, bs, in, alphas, betas, sd, alt, rtemp, minv, acc)
}

func (s *sys2d) PPCGStep(b grid.Bounds, beta, alpha float64, p, sv, u, z, w, r *grid.Field2D, thetaInv float64, minv, sd *grid.Field2D, d deflRows) {
	kernels.PPCGStep(s.p, b, beta, alpha, p, sv, u, z, w, r, thetaInv, minv, sd, s.correct(d, w))
}

func (s *sys2d) PrecondApply(b grid.Bounds, r, z *grid.Field2D) { s.m.Apply(s.p, b, r, z) }

func (s *sys2d) PrecondIsIdentity() bool { return isNone(s.m) }

func (s *sys2d) FoldableDiag() (*grid.Field2D, bool) { return precond.FoldableDiag(s.m) }

func (s *sys2d) Deflation() deflator[*grid.Field2D] { return s.defl }

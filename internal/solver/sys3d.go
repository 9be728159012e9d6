package solver

import (
	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// sys3d backs the dimension-agnostic solver core with the 3D kernels,
// the 7-point operator and the six-face exchange path — the 3D twin of
// sys2d, and the whole of what "the 3D solver" is now: every loop body
// lives in loops.go.
type sys3d struct {
	p    *par.Pool
	op   *stencil.Operator3D
	m    precond.Preconditioner3D
	c    comm.Communicator
	defl Deflator3D
	ws   *Workspace
}

func newSys3D(p Problem3D, o Options, ws *Workspace) *sys3d {
	return &sys3d{p: o.Pool, op: p.Op, m: o.Precond3D, c: o.Comm, defl: o.Deflation3D, ws: ws}
}

func (s *sys3d) Vec(slot int) *grid.Field3D { return s.ws.vec3(slot, s.op.Grid) }
func (s *sys3d) Interior() grid.Bounds3D    { return s.op.Grid.Interior() }
func (s *sys3d) GridHalo() int              { return s.op.Grid.Halo }
func (s *sys3d) Cells(b grid.Bounds3D) int  { return b.Cells() }

func (s *sys3d) Exchange(depth int, fields ...*grid.Field3D) error {
	return s.c.Exchange3D(depth, fields...)
}

func (s *sys3d) Powers(depth int) []grid.Bounds3D {
	phys := s.c.Physical3D()
	bs := make([]grid.Bounds3D, depth)
	for j := range bs {
		e := depth - 1 - j
		bs[j] = s.Interior().ExpandSides(reach(phys.Left, e), reach(phys.Right, e),
			reach(phys.Down, e), reach(phys.Up, e), reach(phys.Back, e), reach(phys.Front, e), s.op.Grid)
	}
	return bs
}

func (s *sys3d) Alone() bool {
	return stencil.PhysicalSides3D(s.c.Physical3D()) == stencil.AllPhysical3D
}

func (s *sys3d) Residual(b grid.Bounds3D, u, rhs, r *grid.Field3D) {
	s.op.Residual(s.p, b, u, rhs, r)
}

func (s *sys3d) Apply(b grid.Bounds3D, p, w *grid.Field3D) { s.op.Apply(s.p, b, p, w) }

func (s *sys3d) ApplyDot(b grid.Bounds3D, p, w *grid.Field3D, d deflRows) float64 {
	return s.op.ApplyDotRows(s.p, b, p, w, s.restrict(d, w))
}

func (s *sys3d) ApplyPreDot(b grid.Bounds3D, minv, r, w *grid.Field3D, d deflRows) float64 {
	return s.op.ApplyPreDotRows(s.p, b, minv, r, w, s.restrict(d, w))
}

func (s *sys3d) ApplyPreDotInit(b grid.Bounds3D, minv, r, w *grid.Field3D, d deflRows) (gamma, delta, rr float64) {
	return s.op.ApplyPreDotInitRows(s.p, b, minv, r, w, s.restrict(d, w))
}

func (s *sys3d) Dot(b grid.Bounds3D, x, y *grid.Field3D) float64 {
	return kernels.Dot3D(s.p, b, x, y)
}

func (s *sys3d) Dot2(b grid.Bounds3D, x, y, z *grid.Field3D) (xy, yz float64) {
	return kernels.Dot23D(s.p, b, x, y, z)
}

func (s *sys3d) Axpy(b grid.Bounds3D, alpha float64, x, y *grid.Field3D) {
	kernels.Axpy3D(s.p, b, alpha, x, y)
}

func (s *sys3d) Xpay(b grid.Bounds3D, x *grid.Field3D, beta float64, y *grid.Field3D, d deflRows) {
	kernels.XpayRows3D(s.p, b, x, beta, y, s.correct(d, x))
}

func (s *sys3d) Copy(b grid.Bounds3D, dst, src *grid.Field3D) { kernels.Copy3D(s.p, b, dst, src) }

func (s *sys3d) CopyAll(dst, src *grid.Field3D) { dst.CopyFrom(src) }

func (s *sys3d) ScaleTo(b grid.Bounds3D, alpha float64, src, dst *grid.Field3D) {
	kernels.ScaleTo3D(s.p, b, alpha, src, dst)
}

func (s *sys3d) AxpyAxpy(b grid.Bounds3D, a1 float64, x1, y1 *grid.Field3D, a2 float64, x2, y2 *grid.Field3D) {
	kernels.AxpyAxpy3D(s.p, b, a1, x1, y1, a2, x2, y2)
}

func (s *sys3d) AxpbyPre(b grid.Bounds3D, a float64, y *grid.Field3D, beta float64, minv, r *grid.Field3D) {
	kernels.AxpbyPre3D(s.p, b, a, y, beta, minv, r)
}

func (s *sys3d) FusedCGStep(b grid.Bounds3D, minv, r, w *grid.Field3D, beta, alpha float64, p, sv, x *grid.Field3D, d deflRows) (gamma, rr float64) {
	return kernels.FusedCGStepRows3D(s.p, b, minv, r, w, beta, alpha, p, sv, x, s.correctFaces(d, w))
}

// correct is the 3D twin of sys2d.correct.
func (s *sys3d) correct(d deflRows, w *grid.Field3D) func(j, k int) {
	if !d.correct {
		return nil
	}
	return func(j, k int) { s.defl.CorrectRow(w, j, k) }
}

// correctFaces is the 3D twin of sys2d.correctFaces.
func (s *sys3d) correctFaces(d deflRows, w *grid.Field3D) func(j, k int) []float64 {
	if !d.correct {
		return nil
	}
	return func(j, k int) []float64 { return s.defl.CorrectRowFaces(w, j, k) }
}

// restrict is the 3D twin of sys2d.restrict.
func (s *sys3d) restrict(d deflRows, w *grid.Field3D) func(j, k int) {
	if !d.restrict {
		return nil
	}
	return func(j, k int) { s.defl.RestrictRow(w, j, k) }
}

func (s *sys3d) CGIter(minv, r, w *grid.Field3D, beta, alpha float64, p, sv, x *grid.Field3D, d deflRows) (gamma, rr, delta float64) {
	return s.op.CGIter(s.p, minv, r, w, beta, alpha, p, sv, x, s.correctFaces(d, w), s.restrict(d, w))
}

func (s *sys3d) ChebySteps(bs []grid.Bounds3D, in grid.Bounds3D, alphas, betas []float64, sd, alt, rtemp, minv, acc *grid.Field3D) {
	s.op.ChebySteps(s.p, bs, in, alphas, betas, sd, alt, rtemp, minv, acc)
}

func (s *sys3d) PPCGStep(b grid.Bounds3D, beta, alpha float64, p, sv, u, z, w, r *grid.Field3D, thetaInv float64, minv, sd *grid.Field3D, d deflRows) {
	kernels.PPCGStep3D(s.p, b, beta, alpha, p, sv, u, z, w, r, thetaInv, minv, sd, s.correct(d, w))
}

func (s *sys3d) PrecondApply(b grid.Bounds3D, r, z *grid.Field3D) { s.m.Apply3D(s.p, b, r, z) }

func (s *sys3d) PrecondIsIdentity() bool { return isNone3(s.m) }

func (s *sys3d) FoldableDiag() (*grid.Field3D, bool) { return precond.FoldableDiag3D(s.m) }

func (s *sys3d) Deflation() deflator[*grid.Field3D] { return s.defl }

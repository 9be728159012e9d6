package solver

import (
	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/halo"
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
	defl deflator[*grid.Field3D, grid.Bounds3D]
}

func newSys3D(p Problem3D, o Options) *sys3d {
	s := &sys3d{p: o.Pool, op: p.Op, m: o.Precond3D, c: o.Comm}
	if o.Deflation3D != nil {
		s.defl = o.Deflation3D
	}
	return s
}

func (s *sys3d) NewVec() *grid.Field3D     { return grid.NewField3D(s.op.Grid) }
func (s *sys3d) Interior() grid.Bounds3D   { return s.op.Grid.Interior() }
func (s *sys3d) GridHalo() int             { return s.op.Grid.Halo }
func (s *sys3d) Cells(b grid.Bounds3D) int { return b.Cells() }

func (s *sys3d) Exchange(depth int, fields ...*grid.Field3D) error {
	return s.c.Exchange3D(depth, fields...)
}

func (s *sys3d) NewPowers(depth int) (powersSched[grid.Bounds3D], error) {
	phys := s.c.Physical3D()
	adj := halo.Sides3D{
		Left: !phys.Left, Right: !phys.Right,
		Down: !phys.Down, Up: !phys.Up,
		Back: !phys.Back, Front: !phys.Front,
	}
	return halo.NewSchedule3D(s.op.Grid, depth, adj)
}

func (s *sys3d) Extend(n int) grid.Bounds3D {
	in := s.op.Grid.Interior()
	if n <= 0 {
		return in
	}
	phys := s.c.Physical3D()
	var l, r, d, u, bk, f int
	if !phys.Left {
		l = n
	}
	if !phys.Right {
		r = n
	}
	if !phys.Down {
		d = n
	}
	if !phys.Up {
		u = n
	}
	if !phys.Back {
		bk = n
	}
	if !phys.Front {
		f = n
	}
	return in.ExpandSides(l, r, d, u, bk, f, s.op.Grid)
}

// Rings returns outer ∖ interior as at most six disjoint boxes:
// full-outer-XY back/front z-slabs, then full-outer-X south/north y-slabs
// at interior depth, then west/east strips at interior height and depth.
func (s *sys3d) Rings(outer grid.Bounds3D) []grid.Bounds3D {
	in := s.op.Grid.Interior()
	var rs []grid.Bounds3D
	if outer.Z0 < in.Z0 {
		rs = append(rs, grid.Bounds3D{X0: outer.X0, X1: outer.X1, Y0: outer.Y0, Y1: outer.Y1, Z0: outer.Z0, Z1: in.Z0})
	}
	if outer.Z1 > in.Z1 {
		rs = append(rs, grid.Bounds3D{X0: outer.X0, X1: outer.X1, Y0: outer.Y0, Y1: outer.Y1, Z0: in.Z1, Z1: outer.Z1})
	}
	if outer.Y0 < in.Y0 {
		rs = append(rs, grid.Bounds3D{X0: outer.X0, X1: outer.X1, Y0: outer.Y0, Y1: in.Y0, Z0: in.Z0, Z1: in.Z1})
	}
	if outer.Y1 > in.Y1 {
		rs = append(rs, grid.Bounds3D{X0: outer.X0, X1: outer.X1, Y0: in.Y1, Y1: outer.Y1, Z0: in.Z0, Z1: in.Z1})
	}
	if outer.X0 < in.X0 {
		rs = append(rs, grid.Bounds3D{X0: outer.X0, X1: in.X0, Y0: in.Y0, Y1: in.Y1, Z0: in.Z0, Z1: in.Z1})
	}
	if outer.X1 > in.X1 {
		rs = append(rs, grid.Bounds3D{X0: in.X1, X1: outer.X1, Y0: in.Y0, Y1: in.Y1, Z0: in.Z0, Z1: in.Z1})
	}
	return rs
}

func (s *sys3d) Residual(b grid.Bounds3D, u, rhs, r *grid.Field3D) {
	s.op.Residual(s.p, b, u, rhs, r)
}

func (s *sys3d) Apply(b grid.Bounds3D, p, w *grid.Field3D) { s.op.Apply(s.p, b, p, w) }

func (s *sys3d) ApplyDot(b grid.Bounds3D, p, w *grid.Field3D) float64 {
	return s.op.ApplyDot(s.p, b, p, w)
}

func (s *sys3d) ApplyPreDot(b grid.Bounds3D, minv, r, w *grid.Field3D) float64 {
	return s.op.ApplyPreDot(s.p, b, minv, r, w)
}

func (s *sys3d) ApplyPreDotInit(b grid.Bounds3D, minv, r, w *grid.Field3D) (gamma, delta, rr float64) {
	return s.op.ApplyPreDotInit(s.p, b, minv, r, w)
}

func (s *sys3d) ApplyPreDotInterior(b grid.Bounds3D, minv, r, w *grid.Field3D) float64 {
	return s.op.ApplyPreDotInterior(s.p, b, minv, r, w)
}

func (s *sys3d) ApplyPreDotBoundary(b grid.Bounds3D, minv, r, w *grid.Field3D) float64 {
	return s.op.ApplyPreDotBoundary(s.p, b, minv, r, w)
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

func (s *sys3d) Xpay(b grid.Bounds3D, x *grid.Field3D, beta float64, y *grid.Field3D) {
	kernels.Xpay3D(s.p, b, x, beta, y)
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

func (s *sys3d) FusedCGStep(b grid.Bounds3D, minv, r, w *grid.Field3D, beta, alpha float64, p, sv, x *grid.Field3D) (gamma, rr float64) {
	return kernels.FusedCGStep3D(s.p, b, minv, r, w, beta, alpha, p, sv, x)
}

func (s *sys3d) ChebySteps(bs []grid.Bounds3D, in grid.Bounds3D, alphas, betas []float64, sd, alt, rtemp, minv, acc *grid.Field3D) {
	s.op.ChebySteps(s.p, bs, in, alphas, betas, sd, alt, rtemp, minv, acc)
}

func (s *sys3d) PPCGInnerInit(b grid.Bounds3D, alpha float64, p, w, u, r, rtemp *grid.Field3D, thetaInv float64, minv, sd, z *grid.Field3D) {
	kernels.PPCGInnerInit3D(s.p, b, alpha, p, w, u, r, rtemp, thetaInv, minv, sd, z)
}

func (s *sys3d) PipelinedCGStep(b grid.Bounds3D, minv, r, w, n *grid.Field3D, beta, alpha float64, p, sv, z, x *grid.Field3D) (gamma, delta, rr float64) {
	return kernels.PipelinedCGStep3D(s.p, b, minv, r, w, n, beta, alpha, p, sv, z, x)
}

func (s *sys3d) PrecondApply(b grid.Bounds3D, r, z *grid.Field3D) { s.m.Apply3D(s.p, b, r, z) }

func (s *sys3d) PrecondIsIdentity() bool { return isNone3(s.m) }

func (s *sys3d) FoldableDiag() (*grid.Field3D, bool) { return precond.FoldableDiag3D(s.m) }

func (s *sys3d) Deflation() deflator[*grid.Field3D, grid.Bounds3D] { return s.defl }

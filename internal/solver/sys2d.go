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

// sys2d backs the dimension-agnostic solver core with the 2D kernels,
// the 5-point operator and the 2D exchange path. Every method is a
// mechanical pass-through; the loop logic lives in loops.go.
type sys2d struct {
	p    *par.Pool
	op   *stencil.Operator2D
	m    precond.Preconditioner
	c    comm.Communicator
	defl deflator[*grid.Field2D, grid.Bounds]
}

func newSys2D(p Problem, o Options) *sys2d {
	s := &sys2d{p: o.Pool, op: p.Op, m: o.Precond, c: o.Comm}
	if o.Deflation != nil {
		s.defl = o.Deflation
	}
	return s
}

func (s *sys2d) NewVec() *grid.Field2D   { return grid.NewField2D(s.op.Grid) }
func (s *sys2d) Interior() grid.Bounds   { return s.op.Grid.Interior() }
func (s *sys2d) GridHalo() int           { return s.op.Grid.Halo }
func (s *sys2d) Cells(b grid.Bounds) int { return b.Cells() }

func (s *sys2d) Exchange(depth int, fields ...*grid.Field2D) error {
	return s.c.Exchange(depth, fields...)
}

func (s *sys2d) NewPowers(depth int) (powersSched[grid.Bounds], error) {
	phys := s.c.Physical()
	adj := halo.Sides{Left: !phys.Left, Right: !phys.Right, Down: !phys.Down, Up: !phys.Up}
	return halo.NewSchedule(s.op.Grid, depth, adj)
}

func (s *sys2d) Extend(n int) grid.Bounds {
	in := s.op.Grid.Interior()
	if n <= 0 {
		return in
	}
	phys := s.c.Physical()
	var l, r, d, u int
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
	return in.ExpandSides(l, r, d, u, s.op.Grid)
}

// Rings returns outer ∖ interior as at most four disjoint rectangles:
// full-width south/north slabs, then west/east strips at interior height.
func (s *sys2d) Rings(outer grid.Bounds) []grid.Bounds {
	in := s.op.Grid.Interior()
	var rs []grid.Bounds
	if outer.Y0 < in.Y0 {
		rs = append(rs, grid.Bounds{X0: outer.X0, X1: outer.X1, Y0: outer.Y0, Y1: in.Y0})
	}
	if outer.Y1 > in.Y1 {
		rs = append(rs, grid.Bounds{X0: outer.X0, X1: outer.X1, Y0: in.Y1, Y1: outer.Y1})
	}
	if outer.X0 < in.X0 {
		rs = append(rs, grid.Bounds{X0: outer.X0, X1: in.X0, Y0: in.Y0, Y1: in.Y1})
	}
	if outer.X1 > in.X1 {
		rs = append(rs, grid.Bounds{X0: in.X1, X1: outer.X1, Y0: in.Y0, Y1: in.Y1})
	}
	return rs
}

func (s *sys2d) Residual(b grid.Bounds, u, rhs, r *grid.Field2D) {
	s.op.Residual(s.p, b, u, rhs, r)
}

func (s *sys2d) Apply(b grid.Bounds, p, w *grid.Field2D) { s.op.Apply(s.p, b, p, w) }

func (s *sys2d) ApplyDot(b grid.Bounds, p, w *grid.Field2D) float64 {
	return s.op.ApplyDot(s.p, b, p, w)
}

func (s *sys2d) ApplyPreDot(b grid.Bounds, minv, r, w *grid.Field2D) float64 {
	return s.op.ApplyPreDot(s.p, b, minv, r, w)
}

func (s *sys2d) ApplyPreDotInit(b grid.Bounds, minv, r, w *grid.Field2D) (gamma, delta, rr float64) {
	return s.op.ApplyPreDotInit(s.p, b, minv, r, w)
}

func (s *sys2d) ApplyPreDotInterior(b grid.Bounds, minv, r, w *grid.Field2D) float64 {
	return s.op.ApplyPreDotInterior(s.p, b, minv, r, w)
}

func (s *sys2d) ApplyPreDotBoundary(b grid.Bounds, minv, r, w *grid.Field2D) float64 {
	return s.op.ApplyPreDotBoundary(s.p, b, minv, r, w)
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

func (s *sys2d) Xpay(b grid.Bounds, x *grid.Field2D, beta float64, y *grid.Field2D) {
	kernels.Xpay(s.p, b, x, beta, y)
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

func (s *sys2d) FusedCGStep(b grid.Bounds, minv, r, w *grid.Field2D, beta, alpha float64, p, sv, x *grid.Field2D) (gamma, rr float64) {
	return kernels.FusedCGStep(s.p, b, minv, r, w, beta, alpha, p, sv, x)
}

func (s *sys2d) ChebySteps(bs []grid.Bounds, in grid.Bounds, alphas, betas []float64, sd, alt, rtemp, minv, acc *grid.Field2D) {
	s.op.ChebySteps(s.p, bs, in, alphas, betas, sd, alt, rtemp, minv, acc)
}

func (s *sys2d) PPCGInnerInit(b grid.Bounds, alpha float64, p, w, u, r, rtemp *grid.Field2D, thetaInv float64, minv, sd, z *grid.Field2D) {
	kernels.PPCGInnerInit(s.p, b, alpha, p, w, u, r, rtemp, thetaInv, minv, sd, z)
}

func (s *sys2d) PipelinedCGStep(b grid.Bounds, minv, r, w, n *grid.Field2D, beta, alpha float64, p, sv, z, x *grid.Field2D) (gamma, delta, rr float64) {
	return kernels.PipelinedCGStep(s.p, b, minv, r, w, n, beta, alpha, p, sv, z, x)
}

func (s *sys2d) PrecondApply(b grid.Bounds, r, z *grid.Field2D) { s.m.Apply(s.p, b, r, z) }

func (s *sys2d) PrecondIsIdentity() bool { return isNone(s.m) }

func (s *sys2d) FoldableDiag() (*grid.Field2D, bool) { return precond.FoldableDiag(s.m) }

func (s *sys2d) Deflation() deflator[*grid.Field2D, grid.Bounds] { return s.defl }

package solver

import (
	"math"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
)

// This file checks the deflated CG engine's merged curvature against the
// projection it replaced, from inside a real solve. probeSys wraps a
// system: each matvec that takes the restriction records its operands
// (z = m⊙x, the raw w = A·z and the local δ = z·w), and the deflator it
// hands the engine wraps the real one so that every SolveCoarse — the
// point where the engine forms δ − bᵀλ — also evaluates the parent's
// two-pass form on a copy of the raw w: ProjectW (the restriction
// sweep, the projector's own reduction round and the correction sweep)
// with z·(P·w) re-measured from the corrected copy. ProjectW is bitwise
// the parent's post-pass projection (the deflate package pins that
// against its projectRestricted oracle).

// SolveCGProbed is SolveCG with check called, on every rank, for each
// curvature the deflated engine forms (startup and every iteration):
// merged is the engine's δ − bᵀλ, twoPass the parent's z·(P·w), and
// scale = Σ|z_i·w_i| + Σ|z_i·(A·W·λ)_i| over the global interior.
func SolveCGProbed(p Problem, o Options, check func(merged, twoPass, scale float64)) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	vec := func() *grid.Field2D { return grid.NewField2D(p.Op.Grid) }
	sys := newProbe[*grid.Field2D, grid.Bounds](newSys2D(p, o, new(Workspace)), o.Comm, dots2D, vec, check)
	res, _, err := runCGCore(newEngine[*grid.Field2D, grid.Bounds](sys, o, p.U, p.RHS), nil, o.MaxIters, 0)
	return res, err
}

// SolveCGProbed3D is SolveCGProbed for SolveCG3D.
func SolveCGProbed3D(p Problem3D, o Options, check func(merged, twoPass, scale float64)) (Result, error) {
	o = o.withDefaults()
	if err := o.validate3(p); err != nil {
		return Result{}, err
	}
	vec := func() *grid.Field3D { return grid.NewField3D(p.Op.Grid) }
	sys := newProbe[*grid.Field3D, grid.Bounds3D](newSys3D(p, o, new(Workspace)), o.Comm, dots3D, vec, check)
	res, _, err := runCGCore(newEngine[*grid.Field3D, grid.Bounds3D](sys, o, p.U, p.RHS), nil, o.MaxIters, 0)
	return res, err
}

type probeSys[F comparable, B any] struct {
	system[F, B]
	defl *probeDefl[F, B]
}

type probeDefl[F comparable, B any] struct {
	deflator[F]
	sys     system[F, B]
	c       comm.Communicator
	m, x, w F       // the last restricting matvec's z = m⊙x and raw w
	delta   float64 // its local z·w
	dots    func(b B, m, x, w F) (dot, abs float64)
	vec     func() F // a fresh field for the oracle's copies of w
	check   func(merged, twoPass, scale float64)
}

func newProbe[F comparable, B any](sys system[F, B], c comm.Communicator, dots func(b B, m, x, w F) (dot, abs float64), vec func() F, check func(merged, twoPass, scale float64)) *probeSys[F, B] {
	ps := &probeSys[F, B]{system: sys}
	if d := sys.Deflation(); d != nil {
		ps.defl = &probeDefl[F, B]{deflator: d, sys: sys, c: c, dots: dots, vec: vec, check: check}
	}
	return ps
}

func (s *probeSys[F, B]) Deflation() deflator[F] {
	if s.defl == nil {
		return nil
	}
	return s.defl
}

// record keeps a restricting matvec's operands.
func (s *probeSys[F, B]) record(d deflRows, m, x, w F, delta float64) float64 {
	if d.restrict {
		s.defl.m, s.defl.x, s.defl.w, s.defl.delta = m, x, w, delta
	}
	return delta
}

func (s *probeSys[F, B]) ApplyDot(b B, p, w F, d deflRows) float64 {
	var zero F
	return s.record(d, zero, p, w, s.system.ApplyDot(b, p, w, d))
}

func (s *probeSys[F, B]) ApplyPreDot(b B, minv, r, w F, d deflRows) float64 {
	return s.record(d, minv, r, w, s.system.ApplyPreDot(b, minv, r, w, d))
}

func (s *probeSys[F, B]) ApplyPreDotInit(b B, minv, r, w F, d deflRows) (gamma, delta, rr float64) {
	gamma, delta, rr = s.system.ApplyPreDotInit(b, minv, r, w, d)
	return gamma, s.record(d, minv, r, w, delta), rr
}

func (s *probeSys[F, B]) CGIter(minv, r, w F, beta, alpha float64, p, sv, x F, d deflRows) (gamma, rr, delta float64) {
	gamma, rr, delta = s.system.CGIter(minv, r, w, beta, alpha, p, sv, x, d)
	return gamma, rr, s.record(d, minv, r, w, delta)
}

// SolveCoarse is the engine's coarse solve, then the two-pass oracle on
// a copy of the raw w, then the engine's λ restored (the oracle's own
// solve leaves λ for the same b; solving again keeps it exact).
func (p *probeDefl[F, B]) SolveCoarse(b []float64) float64 {
	btl := p.deflator.SolveCoarse(b)
	merged := p.c.AllReduceSum(p.delta) - btl
	in := p.sys.Interior()
	pw := p.vec()
	p.sys.CopyAll(pw, p.w)
	p.deflator.(interface{ ProjectW(w F) }).ProjectW(pw)
	pwDot, _ := p.dots(in, p.m, p.x, pw)
	twoPass := p.c.AllReduceSum(pwDot)
	awl := p.vec() // A·W·λ = w − P·w
	p.sys.CopyAll(awl, p.w)
	p.sys.Axpy(in, -1, pw, awl)
	_, wAbs := p.dots(in, p.m, p.x, p.w)
	_, awlAbs := p.dots(in, p.m, p.x, awl)
	scale := p.c.AllReduceSum(wAbs + awlAbs)
	p.deflator.SolveCoarse(b)
	p.check(merged, twoPass, scale)
	return btl
}

// dots2D returns Σ (m⊙x)_i·w_i and Σ|(m⊙x)_i·w_i| over b (nil m =
// identity).
func dots2D(b grid.Bounds, m, x, w *grid.Field2D) (dot, abs float64) {
	for k := b.Y0; k < b.Y1; k++ {
		for j := b.X0; j < b.X1; j++ {
			z := x.At(j, k)
			if m != nil {
				z *= m.At(j, k)
			}
			v := z * w.At(j, k)
			dot += v
			abs += math.Abs(v)
		}
	}
	return dot, abs
}

// dots3D is dots2D over a 3D box.
func dots3D(b grid.Bounds3D, m, x, w *grid.Field3D) (dot, abs float64) {
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			for i := b.X0; i < b.X1; i++ {
				z := x.At(i, j, k)
				if m != nil {
					z *= m.At(i, j, k)
				}
				v := z * w.At(i, j, k)
				dot += v
				abs += math.Abs(v)
			}
		}
	}
	return dot, abs
}

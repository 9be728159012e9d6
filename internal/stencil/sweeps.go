package stencil

import (
	"fmt"
	"math"
	"sync"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// sten is the operator as the sweeps see it: the face coefficients and the
// flat-index distances to a cell's y and z neighbours. kz == nil is the
// 5-point operator, whose y neighbour is the next row of the walker's
// outer index (grid.Rows treats 2D as the one-plane case), and sz is then
// unused. A band body starts with a copy of it (s := s): a closure that
// calls a pointer method on a captured sten would capture it by
// reference and move it to the heap, one allocation per sweep.
type sten struct {
	kx, ky, kz []float64
	sy, sz     int
}

// five reports whether s is the 5-point operator.
func (s *sten) five() bool { return s.kz == nil }

// plane is the distance between consecutive outer indices of the walker:
// a row in 2D, a plane in 3D.
func (s *sten) plane() int {
	if s.five() {
		return s.sy
	}
	return s.sz
}

// outer is the face coefficient along the walker's outer axis: Ky in 2D,
// Kz in 3D.
func (s *sten) outer() []float64 {
	if s.five() {
		return s.ky
	}
	return s.kz
}

// surround is how many rows of y surround a window plane needs on each
// side: one in 3D, none in 2D, whose y neighbours are the adjacent planes.
func (s *sten) surround() int {
	if s.five() {
		return 0
	}
	return 1
}

// vals is what the stencil reads of a value field for a run of n cells:
// the centre row extended one cell each side (c[i], c[i+1], c[i+2] are
// cell i's west, centre and east values), then the south, north, back and
// front rows, n each (back and front nil for the 5-point operator).
type vals struct{ c, s, n, b, f []float64 }

// field sets v to the rows of d the stencil reads for the n cells from
// flat index o.
func (s *sten) field(v *vals, d []float64, o, n int) {
	v.c, v.s, v.n = d[o-1:o+n+1], d[o-s.sy:o-s.sy+n], d[o+s.sy:o+s.sy+n]
	if !s.five() {
		v.b, v.f = d[o-s.sz:o-s.sz+n], d[o+s.sz:o+s.sz+n]
	}
}

// build writes the face coefficients over the padded box pad from the
// density rho, then zeroes the faces on the physical sides m of the
// interior in (see BuildOperator2D). Face coefficients go wherever both
// adjacent cells are addressable; each band rolls two padded planes of
// the per-cell coefficient w (planes k−1 and k) through its planes, so
// every padded plane of density passes through some band and is checked.
func (s sten) build(pool *par.Pool, pad, in grid.Rows, rho []float64, recip bool, r [3]float64, m PhysicalSides3D) error {
	plane := s.plane()
	bad := pool.ForReduce(pad.K0+1, pad.K1, func(k0, k1 int) float64 {
		s := s
		back, cur := make([]float64, plane), make([]float64, plane)
		o := pad.Off(pad.J0, k0-1)
		n := coefRow(back, rho[o:o+plane], recip)
		for k := k0; k < k1; k++ {
			o += plane
			n += coefRow(cur, rho[o:o+plane], recip)
			s.facePlane(o, back, cur, r)
			back, cur = cur, back
		}
		return n
	})
	if bad > 0 {
		return fmt.Errorf("stencil: non-positive or NaN density encountered")
	}
	s.zeroFlux(pad, in, m)
	return nil
}

// coefRow writes the per-cell conduction coefficient w of one padded row
// of density (ρ, or 1/ρ under RecipConductivity) and returns how many of
// its densities are non-positive or NaN.
func coefRow(w, rho []float64, recip bool) float64 {
	rho = rho[:len(w)]
	var bad float64
	for i, r := range rho {
		if r <= 0 || math.IsNaN(r) {
			bad++
		}
		if recip {
			w[i] = 1 / r
		} else {
			w[i] = r
		}
	}
	return bad
}

// zeroFlux zeroes, over the padded box pad, the faces on the physical
// sides m of the interior in: no conduction through outer faces.
func (s *sten) zeroFlux(pad, in grid.Rows, m PhysicalSides3D) {
	n := pad.N()
	west, east := in.X0-pad.X0+1, in.X1-pad.X0 // Kx at x ≤ X0, x ≥ X1
	for k := pad.K0; k < pad.K1; k++ {
		for j := pad.J0; j < pad.J1; j++ {
			o := pad.Off(j, k)
			if m.Left {
				clear(s.kx[o : o+west])
			}
			if m.Right {
				clear(s.kx[o+east : o+n])
			}
			if m.Down && j <= in.J0 || m.Up && j >= in.J1 {
				clear(s.ky[o : o+n])
			}
			if m.Back && k <= in.K0 || m.Front && k >= in.K1 {
				clear(s.outer()[o : o+n])
			}
		}
	}
}

// apply is the band sweep of Apply and, with a right-hand side bd, of
// Residual: w = A·p over b, or w = bd − A·p.
func (s sten) apply(pool *par.Pool, b grid.Rows, pd, bd, wd []float64) {
	if b.Empty() {
		return
	}
	n := b.N()
	pool.For(b.K0, b.K1, func(k0, k1 int) {
		s := s
		var v vals
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				ws := wd[o : o+n : o+n]
				s.field(&v, pd, o, n)
				s.applyRow(o, &v, ws)
				if bd != nil {
					for i, x := range bd[o : o+n] {
						ws[i] = x - ws[i]
					}
				}
			}
		}
	})
}

// preDot is the band sweep of ApplyDot, ApplyPreDot and ApplyPreDotInit:
// w = A·u over b, with δ = Σ u·w in kind's lanes. u is r itself for nil
// md, and otherwise minv ⊙ r through a rolling window (see window), so
// every product is computed once and m, r stream through one read each.
// initDot adds γ = Σ r·u and Σ r·r, each through one accumulator in cell
// order. rows, when non-nil, is called with each row of b once w is
// final there. It returns (γ, δ, rr).
func (s sten) preDot(pool *par.Pool, kind dotKind, b grid.Rows, md, rd, wd []float64, rows func(j, k int)) [3]float64 {
	if b.Empty() {
		return [3]float64{}
	}
	acc := pool.ForReduceN(3, b.K0, b.K1, func(k0, k1 int, acc []float64) {
		s := s
		n := b.N()
		var w window
		if md != nil {
			w = s.window(b, md, rd)
			w.fill(w.back, k0-1)
			w.fill(w.cur, k0)
		}
		var l lanes
		var v vals
		var gamma, rr float64
		for k := k0; k < k1; k++ {
			if md != nil {
				w.fill(w.front, k+1)
			}
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				if md != nil {
					w.vals(&v, j, 0, n)
				} else {
					s.field(&v, rd, o, n)
				}
				s.dotRow(kind, o, &v, wd[o:o+n:o+n], &l)
				if kind == initDot {
					gamma, rr = initDotsRow(rd[o:o+n], v.c[1:], gamma, rr)
				}
				if rows != nil {
					rows(j, k)
				}
			}
			w.rotate()
		}
		acc[0] += gamma
		acc[1] += l.sum()
		acc[2] += rr
		w.put()
	})
	return [3]float64{acc[0], acc[1], acc[2]}
}

// unpack3 returns preDot's (γ, δ, rr) as three values.
func unpack3(a [3]float64) (float64, float64, float64) { return a[0], a[1], a[2] }

// initDotsRow adds one row's Σ r·u and Σ r·r to gamma and rr, each in
// cell order.
func initDotsRow(rs, us []float64, gamma, rr float64) (float64, float64) {
	us = us[:len(rs)]
	for i, c := range rs {
		gamma += c * us[i]
		rr += c * c
	}
	return gamma, rr
}

// diagonal is the band sweep of Diagonal and InvDiagonal.
func (s sten) diagonal(pool *par.Pool, b grid.Rows, dd []float64, inv bool) {
	if b.Empty() {
		return
	}
	n := b.N()
	pool.For(b.K0, b.K1, func(k0, k1 int) {
		s := s
		for k := k0; k < k1; k++ {
			for j := b.J0; j < b.J1; j++ {
				o := b.Off(j, k)
				s.diagRow(o, dd[o:o+n:o+n], inv)
			}
		}
	})
}

// window is a band's rolling three-plane window of u = minv ⊙ r over the
// box of a walker: planes k−1, k and k+1 of the box's rows, each row
// extended one cell each side, plus sur rows of y surround on each side
// (one in 3D; none in 2D, whose y neighbours are the adjacent planes). A
// plane is filled as the front neighbour of plane k, serves as the centre
// of k+1 and the back neighbour of k+2, and the three buffers rotate. The
// surround's corner cells are filled but never read (the stencil has no
// diagonal neighbours); planes recomputed by the adjacent band are the
// same pointwise products, so a sweep's output does not depend on the
// worker count. The zero window (nil minv) rotates and puts nothing.
type window struct {
	buf              *[]float64
	back, cur, front []float64
	md, rd           []float64
	b                grid.Rows
	width, sur       int
}

// windowPool recycles the window buffers, so a sweep allocates nothing
// once every worker has run a band: a body takes a buffer for the
// duration of one band and hands it back.
var windowPool sync.Pool

// window takes a window over the box of b from the pool (contents
// arbitrary: fill writes every cell the stencil reads).
func (s *sten) window(b grid.Rows, md, rd []float64) window {
	w := window{md: md, rd: rd, b: b, width: b.N() + 2, sur: s.surround()}
	plane := w.width * (b.J1 - b.J0 + 2*w.sur)
	buf, _ := windowPool.Get().(*[]float64)
	if buf == nil || cap(*buf) < 3*plane {
		v := make([]float64, 3*plane)
		buf = &v
	}
	*buf = (*buf)[:3*plane]
	w.buf = buf
	w.back = (*buf)[0*plane : 1*plane : 1*plane]
	w.cur = (*buf)[1*plane : 2*plane : 2*plane]
	w.front = (*buf)[2*plane : 3*plane : 3*plane]
	return w
}

// put hands the buffer back.
func (w *window) put() {
	if w.buf != nil {
		windowPool.Put(w.buf)
	}
}

// rotate moves the window one plane on.
func (w *window) rotate() { w.back, w.cur, w.front = w.cur, w.front, w.back }

// fill writes plane k of u into dst.
func (w *window) fill(dst []float64, k int) {
	for jw := 0; jw < len(dst)/w.width; jw++ {
		o := w.b.Off(w.b.J0-w.sur+jw, k) - 1
		fillWindowRow(dst[jw*w.width:][:w.width], w.md[o:o+w.width:o+w.width], w.rd[o:][:w.width:w.width])
	}
}

// fillWindowRow writes one window row of u: dst = ms ⊙ rs.
func fillWindowRow(dst, ms, rs []float64) {
	n := len(dst)
	ms, rs = ms[:n], rs[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		dst[j] = ms[j] * rs[j]
		dst[j+1] = ms[j+1] * rs[j+1]
		dst[j+2] = ms[j+2] * rs[j+2]
		dst[j+3] = ms[j+3] * rs[j+3]
	}
	for ; j < n; j++ {
		dst[j] = ms[j] * rs[j]
	}
}

// vals sets v to the window rows the stencil reads for the n cells of
// row j of the centre plane from column X0+off. In 2D the south and north
// rows are the back and front planes.
func (w *window) vals(v *vals, j, off, n int) {
	wo := (j-w.b.J0+w.sur)*w.width + 1 + off
	v.c = w.cur[wo-1 : wo+n+1]
	if w.sur == 0 {
		v.s, v.n = w.back[wo:wo+n], w.front[wo:wo+n]
		return
	}
	v.s, v.n = w.cur[wo-w.width:wo-w.width+n], w.cur[wo+w.width:wo+w.width+n]
	v.b, v.f = w.back[wo:wo+n], w.front[wo:wo+n]
}

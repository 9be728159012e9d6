package stencil

import "tealeaf/internal/simd"

// The sweeps hand every row — a run of n cells from flat index o — to a
// row leaf, and each kind of leaf picks its 5-point or 7-point form below
// and nowhere else. A 2D leaf takes the x-face row kx and the centre value
// row p extended one cell each side (kx[i], kx[i+1] are cell i's west and
// east faces; p[i], p[i+1], p[i+2] its west, centre and east values), the
// south/north face and value rows and the output row, whose length is n.
// A 3D leaf takes the same plus the back/front face and value rows. The Go
// forms re-slice every row to the output row's length, which is what
// lets the compiler drop the per-element bounds checks. Behind simd.AVX2
// applyDotRow5, applyPreDotRow5, chebyRow5 and applyDotRow run as
// assembly (leaves_amd64.s, leaves7_amd64.s) that computes the same bits;
// see DESIGN.md, "AVX2 row leaves" and "One stencil walker".

// dotKind is the lane scheme of a sweep's δ = Σ u·w, per arity.
type dotKind int

const (
	fieldDot  dotKind = iota // ApplyDot: 4 lanes; 7-point serial
	identDot                 // ApplyPreDot and CGIter, u = r: 4 lanes; 7-point 2 lanes
	windowDot                // the same through the window of u = minv ⊙ r: 2 lanes; 7-point serial
	initDot                  // ApplyPreDotInit: serial; 7-point serial
)

// preDotKind is the kind of ApplyPreDot and CGIter's matvec.
func preDotKind(identity bool) dotKind {
	if identity {
		return identDot
	}
	return windowDot
}

// lanes carries a band's δ lanes across its rows. A serial sum lives in
// lane 0; unused lanes stay zero, so sum is each scheme's own fold (an
// exact zero added to a band's partial changes no bit of the sweep's
// result).
type lanes [4]float64

func (l *lanes) sum() float64 { return (l[0] + l[1]) + (l[2] + l[3]) }

// faces returns the face-coefficient rows of the n cells from flat index
// o: Kx extended to n+1, south and north Ky, back and front Kz (nil for
// the 5-point operator).
func (s *sten) faces(o, n int) (kx, ks, kn, kb, kf []float64) {
	kx, ks, kn = s.kx[o:o+n+1], s.ky[o:o+n], s.ky[o+s.sy:o+s.sy+n]
	if !s.five() {
		kb, kf = s.kz[o:o+n], s.kz[o+s.sz:o+s.sz+n]
	}
	return kx, ks, kn, kb, kf
}

// applyRow writes ws = A·v over the row.
func (s *sten) applyRow(o int, v *vals, ws []float64) {
	kx, ks, kn, kb, kf := s.faces(o, len(ws))
	if s.five() {
		applyRow5(kx, ks, kn, v.c, v.s, v.n, ws)
		return
	}
	applyRow7(kx, ks, kn, kb, kf, v.c, v.s, v.n, v.b, v.f, ws)
}

// dotRow writes ws = A·v over the row and adds Σ v·w to l in kind's
// lanes.
func (s *sten) dotRow(kind dotKind, o int, v *vals, ws []float64, l *lanes) {
	kx, ks, kn, kb, kf := s.faces(o, len(ws))
	if s.five() {
		switch kind {
		case fieldDot, identDot:
			applyDotRow5(kx, kn, ks, v.n, v.s, v.c, ws, (*[4]float64)(l))
		case windowDot:
			applyPreDotRow5(kx, kn, ks, v.n, v.s, v.c, ws, (*[2]float64)(l[:2]))
		default:
			l[0] = applyDotRow5Serial(kx, ks, kn, v.c, v.s, v.n, ws, l[0])
		}
		return
	}
	if kind == identDot {
		applyDotRow7Pair(kx, ks, kn, kb, kf, v.c, v.s, v.n, v.b, v.f, ws, (*[2]float64)(l[:2]))
		return
	}
	l[0] = applyDotRow(kx, ks, kn, kb, kf, v.c, v.s, v.n, v.b, v.f, ws, l[0])
}

// chebyRow runs one row of a Chebyshev step (see ChebySteps) on the
// direction rows v.
func (s *sten) chebyRow(o int, v *vals, rs, ms, ns, zs []float64, alpha, beta float64) {
	kx, ks, kn, kb, kf := s.faces(o, len(ns))
	if s.five() {
		chebyRow5(kx, ks, kn, v.c, v.s, v.n, rs, ms, ns, zs, alpha, beta)
		return
	}
	chebyRow7(kx, ks, kn, kb, kf, v.c, v.s, v.n, v.b, v.f, rs, ms, ns, zs, alpha, beta)
}

// diagRow writes the diagonal 1 + ΣK over the row, or its reciprocal.
func (s *sten) diagRow(o int, ds []float64, inv bool) {
	n := len(ds)
	kx, ks, kn, kb, kf := s.faces(o, n)
	kw, ke := kx[:n], kx[1:n+1]
	ks, kn = ks[:n], kn[:n]
	if s.five() {
		for i := range ds {
			v := 1 + (kn[i] + ks[i]) + (ke[i] + kw[i])
			if inv {
				v = 1 / v
			}
			ds[i] = v
		}
		return
	}
	kb, kf = kb[:n], kf[:n]
	for i := range ds {
		v := 1 + (ke[i] + kw[i]) + (kn[i] + ks[i]) + (kf[i] + kb[i])
		if inv {
			v = 1 / v
		}
		ds[i] = v
	}
}

// facePlane writes the face coefficients of the padded plane at flat
// index o (a row in 2D) from the per-cell coefficient planes cur and back
// (outer index k−1), every cell whose west, south and back neighbours are
// addressable.
func (s *sten) facePlane(o int, back, cur []float64, r [3]float64) {
	n := len(cur)
	if s.five() {
		faceRow2D(s.kx[o:o+n], s.ky[o:o+n], back, cur, r[0], r[1])
		return
	}
	sy := s.sy
	for q := sy; q < n; q += sy {
		faceRow3D(s.kx[o+q:o+q+sy], s.ky[o+q:o+q+sy], s.kz[o+q:o+q+sy],
			cur[q-sy:q], cur[q:q+sy], back[q:q+sy], r[0], r[1], r[2])
	}
}

// faceRow2D writes one padded row of the 2D face coefficients from the
// coefficient rows cur (this row) and below (row k−1), every cell but
// the first, whose west neighbour is not addressable:
//
//	Kx = rx·(w(j−1)+w(j)) / (2·w(j−1)·w(j)),  Ky likewise with w(k−1).
func faceRow2D(kx, ky, below, cur []float64, rx, ry float64) {
	n := len(cur)
	kx, ky, below = kx[:n], ky[:n], below[:n]
	for j := 1; j < n; j++ {
		wl, wc, wd := cur[j-1], cur[j], below[j]
		kx[j] = rx * (wl + wc) / (2 * wl * wc)
		ky[j] = ry * (wd + wc) / (2 * wd * wc)
	}
}

// faceRow3D writes one padded row of the 3D face coefficients from the
// coefficient rows cur (this row), south (row j−1) and back (plane k−1),
// every cell but the first:
//
//	Kx = rx·((w(i−1)+w(i)) / (2·w(i−1)·w(i))),  Ky, Kz likewise.
func faceRow3D(kx, ky, kz, south, cur, back []float64, rx, ry, rz float64) {
	n := len(cur)
	kx, ky, kz, south, back = kx[:n], ky[:n], kz[:n], south[:n], back[:n]
	for i := 1; i < n; i++ {
		wl, wc, ws, wb := cur[i-1], cur[i], south[i], back[i]
		kx[i] = rx * ((wl + wc) / (2 * wl * wc))
		ky[i] = ry * ((ws + wc) / (2 * ws * wc))
		kz[i] = rz * ((wb + wc) / (2 * wb * wc))
	}
}

// point5 evaluates one row of the 5-point operator at a cell: the
// diagonal 1 + ΣK times the centre value c minus the four face-weighted
// neighbours — Listing 1's expression. Every 5-point leaf evaluates a
// cell through this expression, so their w agree bit for bit.
func point5(kw, ke, ks, kn, c, w, e, s, n float64) float64 {
	return (1+(kn+ks)+(ke+kw))*c - (kn*n + ks*s) - (ke*e + kw*w)
}

// point7 is point5 for the 7-point operator: kw/ke the west/east Kx faces
// with values w/e, ks/kn south and north in y, kb/kf back and front in z.
func point7(kw, ke, ks, kn, kb, kf, c, w, e, s, n, b, f float64) float64 {
	return (1+(ke+kw)+(kn+ks)+(kf+kb))*c - (ke*e + kw*w) - (kn*n + ks*s) - (kf*f + kb*b)
}

// xRows cuts the extended x-face row and centre row of an n-cell run into
// the equal-length views the Go leaves index at i: west and east faces,
// west, centre and east values.
func xRows(kx, p []float64, n int) (kw, ke, pw, pc, pe []float64) {
	return kx[:n], kx[1 : n+1], p[:n], p[1 : n+1], p[2 : n+2]
}

// applyRow5 is the plain 5-point leaf: ws = A·p over one row.
func applyRow5(kx, ks, kn, p, ps, pn, ws []float64) {
	n := len(ws)
	kw, ke, pw, pc, pe := xRows(kx, p, n)
	ks, kn, ps, pn = ks[:n], kn[:n], ps[:n], pn[:n]
	for i := range ws {
		ws[i] = point5(kw[i], ke[i], ks[i], kn[i], pc[i], pw[i], pe[i], ps[i], pn[i])
	}
}

// applyRow7 is the plain 7-point leaf: ws = A·p over one row.
func applyRow7(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64) {
	n := len(ws)
	kw, ke, pw, pc, pe := xRows(kx, p, n)
	ks, kn, kb, kf = ks[:n], kn[:n], kb[:n], kf[:n]
	ps, pn, pb, pf = ps[:n], pn[:n], pb[:n], pf[:n]
	for i := range ws {
		ws[i] = point7(kw[i], ke[i], ks[i], kn[i], kb[i], kf[i], pc[i], pw[i], pe[i], ps[i], pn[i], pb[i], pf[i])
	}
}

// applyDotRow5 is the 4-lane 5-point dot leaf: w = A·p over the row, with
// p·w accumulated in four lanes — cell j of each aligned group of four
// into lane j mod 4, the cells past the last full group into lane 0.
func applyDotRow5(kxs, kyn, kys, pn, pso, pc, ws []float64, pw *[4]float64) {
	if simd.AVX2 {
		applyDotRow5AVX2(kxs, kyn, kys, pn, pso, pc, ws, pw)
		return
	}
	applyDotRow5Go(kxs, kyn, kys, pn, pso, pc, ws, pw)
}

func applyDotRow5Go(kxs, kyn, kys, pn, pso, pc, ws []float64, pw *[4]float64) {
	n := len(ws)
	kxs, kyn, kys, pn, pso, pc = kxs[:n+1], kyn[:n], kys[:n], pn[:n], pso[:n], pc[:n+2]
	pw0, pw1, pw2, pw3 := pw[0], pw[1], pw[2], pw[3]
	j := 0
	for ; j+3 < n; j += 4 {
		pc0, pc1, pc2, pc3 := pc[j+1], pc[j+2], pc[j+3], pc[j+4]
		v0 := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc0 -
			(kyn[j]*pn[j] + kys[j]*pso[j]) -
			(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
		v1 := (1+(kyn[j+1]+kys[j+1])+(kxs[j+2]+kxs[j+1]))*pc1 -
			(kyn[j+1]*pn[j+1] + kys[j+1]*pso[j+1]) -
			(kxs[j+2]*pc[j+3] + kxs[j+1]*pc[j+1])
		v2 := (1+(kyn[j+2]+kys[j+2])+(kxs[j+3]+kxs[j+2]))*pc2 -
			(kyn[j+2]*pn[j+2] + kys[j+2]*pso[j+2]) -
			(kxs[j+3]*pc[j+4] + kxs[j+2]*pc[j+2])
		v3 := (1+(kyn[j+3]+kys[j+3])+(kxs[j+4]+kxs[j+3]))*pc3 -
			(kyn[j+3]*pn[j+3] + kys[j+3]*pso[j+3]) -
			(kxs[j+4]*pc[j+5] + kxs[j+3]*pc[j+3])
		ws[j], ws[j+1], ws[j+2], ws[j+3] = v0, v1, v2, v3
		pw0 += pc0 * v0
		pw1 += pc1 * v1
		pw2 += pc2 * v2
		pw3 += pc3 * v3
	}
	for ; j < n; j++ {
		pc0 := pc[j+1]
		v := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc0 -
			(kyn[j]*pn[j] + kys[j]*pso[j]) -
			(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
		ws[j] = v
		pw0 += pc0 * v
	}
	pw[0], pw[1], pw[2], pw[3] = pw0, pw1, pw2, pw3
}

// applyPreDotRow5 is the 2-lane 5-point dot leaf: w = A·u over the row
// for the window rows un, us, uc of u, with u·w accumulated in two lanes —
// even cells into lane 0, odd cells into lane 1, an odd row's last cell
// into lane 0.
func applyPreDotRow5(kxs, kyn, kys, un, us, uc, ws []float64, uw *[2]float64) {
	if simd.AVX2 {
		applyPreDotRow5AVX2(kxs, kyn, kys, un, us, uc, ws, uw)
		return
	}
	applyPreDotRow5Go(kxs, kyn, kys, un, us, uc, ws, uw)
}

func applyPreDotRow5Go(kxs, kyn, kys, un, us, uc, ws []float64, uw *[2]float64) {
	n := len(ws)
	kxs, kyn, kys, un, us, uc = kxs[:n+1], kyn[:n], kys[:n], un[:n], us[:n], uc[:n+2]
	uw0, uw1 := uw[0], uw[1]
	j := 0
	for ; j+1 < n; j += 2 {
		uc0 := uc[j+1]
		v0 := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*uc0 -
			(kyn[j]*un[j] + kys[j]*us[j]) -
			(kxs[j+1]*uc[j+2] + kxs[j]*uc[j])
		ws[j] = v0
		uw0 += uc0 * v0
		uc1 := uc[j+2]
		v1 := (1+(kyn[j+1]+kys[j+1])+(kxs[j+2]+kxs[j+1]))*uc1 -
			(kyn[j+1]*un[j+1] + kys[j+1]*us[j+1]) -
			(kxs[j+2]*uc[j+3] + kxs[j+1]*uc[j+1])
		ws[j+1] = v1
		uw1 += uc1 * v1
	}
	for ; j < n; j++ {
		uc0 := uc[j+1]
		v := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*uc0 -
			(kyn[j]*un[j] + kys[j]*us[j]) -
			(kxs[j+1]*uc[j+2] + kxs[j]*uc[j])
		ws[j] = v
		uw0 += uc0 * v
	}
	uw[0], uw[1] = uw0, uw1
}

// applyDotRow5Serial is the serial 5-point dot leaf: ws = A·p over one
// row, adding Σ p·w to dot through one accumulator in cell order.
func applyDotRow5Serial(kx, ks, kn, p, ps, pn, ws []float64, dot float64) float64 {
	n := len(ws)
	kw, ke, pw, pc, pe := xRows(kx, p, n)
	ks, kn, ps, pn = ks[:n], kn[:n], ps[:n], pn[:n]
	for i := range ws {
		c := pc[i]
		v := point5(kw[i], ke[i], ks[i], kn[i], c, pw[i], pe[i], ps[i], pn[i])
		ws[i] = v
		dot += c * v
	}
	return dot
}

// applyDotRow is the serial 7-point dot leaf: ws = A·p over one row,
// adding Σ p·w to dot through a single accumulator in cell order. The
// assembly form computes four cells' p·w in one register and still adds
// them to dot one at a time, in cell order.
func applyDotRow(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64, dot float64) float64 {
	if simd.AVX2 {
		return applyDotRowAVX2(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws, dot)
	}
	return applyDotRowGo(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws, dot)
}

// applyDotRowGo is the Go form of applyDotRow (2-way unrolled, one
// chain).
func applyDotRowGo(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64, dot float64) float64 {
	n := len(ws)
	kw, ke, pw, pc, pe := xRows(kx, p, n)
	ks, kn, kb, kf = ks[:n], kn[:n], kb[:n], kf[:n]
	ps, pn, pb, pf = ps[:n], pn[:n], pb[:n], pf[:n]
	i := 0
	for ; i+1 < n; i += 2 {
		c0 := pc[i]
		v0 := point7(kw[i], ke[i], ks[i], kn[i], kb[i], kf[i], c0, pw[i], pe[i], ps[i], pn[i], pb[i], pf[i])
		ws[i] = v0
		dot += c0 * v0
		c1 := pc[i+1]
		v1 := point7(kw[i+1], ke[i+1], ks[i+1], kn[i+1], kb[i+1], kf[i+1], c1, pw[i+1], pe[i+1], ps[i+1], pn[i+1], pb[i+1], pf[i+1])
		ws[i+1] = v1
		dot += c1 * v1
	}
	for ; i < n; i++ {
		c := pc[i]
		v := point7(kw[i], ke[i], ks[i], kn[i], kb[i], kf[i], c, pw[i], pe[i], ps[i], pn[i], pb[i], pf[i])
		ws[i] = v
		dot += c * v
	}
	return dot
}

// applyDotRow7Pair is the 2-lane 7-point dot leaf: ws = A·p over one row,
// with p·w accumulated in two lanes — even cells into lane 0, odd cells
// into lane 1, an odd row's last cell into lane 0.
func applyDotRow7Pair(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, ws []float64, l *[2]float64) {
	n := len(ws)
	kw, ke, pw, pc, pe := xRows(kx, p, n)
	ks, kn, kb, kf = ks[:n], kn[:n], kb[:n], kf[:n]
	ps, pn, pb, pf = ps[:n], pn[:n], pb[:n], pf[:n]
	l0, l1 := l[0], l[1]
	i := 0
	for ; i+1 < n; i += 2 {
		c0 := pc[i]
		v0 := point7(kw[i], ke[i], ks[i], kn[i], kb[i], kf[i], c0, pw[i], pe[i], ps[i], pn[i], pb[i], pf[i])
		ws[i] = v0
		l0 += c0 * v0
		c1 := pc[i+1]
		v1 := point7(kw[i+1], ke[i+1], ks[i+1], kn[i+1], kb[i+1], kf[i+1], c1, pw[i+1], pe[i+1], ps[i+1], pn[i+1], pb[i+1], pf[i+1])
		ws[i+1] = v1
		l1 += c1 * v1
	}
	for ; i < n; i++ {
		c := pc[i]
		v := point7(kw[i], ke[i], ks[i], kn[i], kb[i], kf[i], c, pw[i], pe[i], ps[i], pn[i], pb[i], pf[i])
		ws[i] = v
		l0 += c * v
	}
	l[0], l[1] = l0, l1
}

// The Chebyshev row leaves take a run of n cells and re-slice every row to
// its length, so the loops carry no bounds checks on them. nil ms is the
// identity preconditioner, tested per cell. A nil zs is a run outside the
// interior — a few ring cells per row, or a few ring rows — which
// advances the residual and the direction only; the interior loop also
// adds the new direction to zs while it is still in a register. One loop
// testing zs per cell as well measured 3.15 against 2.55 ns/cell
// (identity) and 3.35 against 2.80 (diagonal) on a serial 512×1024 rank;
// a third loop specialised on the identity measured no faster than the
// per-cell test.

// chebyRow5 is the 5-point Chebyshev leaf; behind simd.AVX2 it runs as
// assembly computing the same bits.
func chebyRow5(kx, ks, kn, p, ps, pn, rs, ms, ns, zs []float64, alpha, beta float64) {
	if simd.AVX2 {
		chebyRow5AVX2(kx, ks, kn, p, ps, pn, rs, ms, ns, zs, alpha, beta)
		return
	}
	chebyRow5Go(kx, ks, kn, p, ps, pn, rs, ms, ns, zs, alpha, beta)
}

// chebyRow5Go is the Go form of chebyRow5. The west face coefficient and
// the west and centre values ride in registers: each is the previous
// cell's east one, and nothing in the sweep writes the field they come
// from.
func chebyRow5Go(kx, ks, kn, p, ps, pn, rs, ms, ns, zs []float64, alpha, beta float64) {
	n := len(ns)
	if n == 0 {
		return
	}
	ke, pe := kx[1:n+1], p[2:n+2]
	ks, kn, ps, pn, rs = ks[:n], kn[:n], ps[:n], pn[:n], rs[:n]
	k0, w, c := kx[0], p[0], p[1]
	if zs == nil {
		for i := range ns {
			k1, e := ke[i], pe[i]
			v := rs[i] - point5(k0, k1, ks[i], kn[i], c, w, e, ps[i], pn[i])
			rs[i] = v
			if ms != nil {
				v = ms[i] * v
			}
			ns[i] = alpha*c + beta*v
			k0, w, c = k1, c, e
		}
		return
	}
	zs = zs[:n]
	for i := range ns {
		k1, e := ke[i], pe[i]
		v := rs[i] - point5(k0, k1, ks[i], kn[i], c, w, e, ps[i], pn[i])
		rs[i] = v
		if ms != nil {
			v = ms[i] * v
		}
		sn := alpha*c + beta*v
		ns[i] = sn
		zs[i] += sn
		k0, w, c = k1, c, e
	}
}

// chebyRow7 is the 7-point Chebyshev leaf: chebyRow5Go with the back and
// front faces.
func chebyRow7(kx, ks, kn, kb, kf, p, ps, pn, pb, pf, rs, ms, ns, zs []float64, alpha, beta float64) {
	n := len(ns)
	if n == 0 {
		return
	}
	ke, pe := kx[1:n+1], p[2:n+2]
	ks, kn, kb, kf = ks[:n], kn[:n], kb[:n], kf[:n]
	ps, pn, pb, pf, rs = ps[:n], pn[:n], pb[:n], pf[:n], rs[:n]
	k0, w, c := kx[0], p[0], p[1]
	if zs == nil {
		for i := range ns {
			k1, e := ke[i], pe[i]
			v := rs[i] - point7(k0, k1, ks[i], kn[i], kb[i], kf[i], c, w, e, ps[i], pn[i], pb[i], pf[i])
			rs[i] = v
			if ms != nil {
				v = ms[i] * v
			}
			ns[i] = alpha*c + beta*v
			k0, w, c = k1, c, e
		}
		return
	}
	zs = zs[:n]
	for i := range ns {
		k1, e := ke[i], pe[i]
		v := rs[i] - point7(k0, k1, ks[i], kn[i], kb[i], kf[i], c, w, e, ps[i], pn[i], pb[i], pf[i])
		rs[i] = v
		if ms != nil {
			v = ms[i] * v
		}
		sn := alpha*c + beta*v
		ns[i] = sn
		zs[i] += sn
		k0, w, c = k1, c, e
	}
}

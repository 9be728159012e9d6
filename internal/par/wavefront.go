package par

// This file is the temporal wavefront scheduler: it runs several
// dependent sweeps over the outermost axis (Y in 2D, Z in 3D) as one
// pass, so each row streams through cache once per block of sweeps
// instead of once per sweep. It knows nothing of what a row does; the
// one property it provides is the order below, which is what a sweep
// that reads its input one row either side of the row it writes needs
// (the PPCG Chebyshev steps in internal/stencil are its caller).

// Wavefront runs row(j, k) exactly once for every step j in [0, steps)
// and every outer-axis index k in [lo, hi), ordered so that step j starts
// row k only after step j−1 has finished rows k−1, k and k+1. For a
// sweep whose step j reads field F_j one row either side of the row it
// writes into F_{j+1}, and whose steps ping-pong between two fields
// (F_{j+2} is F_j), that order is all the safety needed: step j reads
// rows k−1..k+1 of F_j after step j−1 wrote them, and step j+1
// overwrites row k of F_j only after step j has read it for rows
// k−1..k+1. Rows a step does not own are the callback's to skip.
//
// One worker runs tick t = k+j for ascending t, and within a tick the
// steps in ascending order — row t of step 0, then row t−1 of step 1 and
// so on (the lag-one order). With more workers the range is cut into
// bands of at least 2·(steps−1) rows, as many as the pool would split
// [lo,hi) into but no more than that height allows. Phase 1 runs one
// trapezoid per band in one parallel region: step j skips j rows on each
// side of every internal cut, so a band never reads a row another band
// writes. Phase 2 fills the triangle [c−j, c+j) of each step j around
// each cut c, in tick order; triangles of different cuts are 2·(steps−1)
// rows apart and run in parallel. Phase 1's step j+1 never writes a row
// phase 2's step j reads, so two fields still suffice.
//
// The reentrancy rules of For apply; row must be safe to call
// concurrently for rows the order above does not relate.
func (p *Pool) Wavefront(steps, lo, hi int, row func(step, k int)) {
	if steps < 1 || hi <= lo {
		return
	}
	n := hi - lo
	nb := p.blocks(lo, hi)
	if steps > 1 {
		nb = min(nb, n/(2*(steps-1)))
	}
	if nb <= 1 {
		trapezoid(steps, lo, hi, 0, 0, row)
		return
	}
	p.region(nb, func(id int) {
		var below, above int
		if id > 0 {
			below = 1
		}
		if id < nb-1 {
			above = 1
		}
		trapezoid(steps, lo+id*n/nb, lo+(id+1)*n/nb, below, above, row)
	})
	if steps > 1 {
		p.region(nb-1, func(id int) { triangle(steps, lo+(id+1)*n/nb, row) })
	}
}

// trapezoid runs rows [b0+j·below, b1−j·above) of every step j in the
// lag-one order: below and above are 1 at an internal cut, 0 at an end of
// the whole range.
func trapezoid(steps, b0, b1, below, above int, row func(step, k int)) {
	for t := b0; t < b1+steps-1; t++ {
		for j := 0; j < steps; j++ {
			if k := t - j; k >= b0+j*below && k < b1-j*above {
				row(j, k)
			}
		}
	}
}

// triangle runs rows [c−j, c+j) of every step j — what the trapezoids on
// either side of cut c left out — in the lag-one order.
func triangle(steps, c int, row func(step, k int)) {
	for t := c; t < c+2*(steps-1); t++ {
		for j := 1; j < steps; j++ {
			if k := t - j; k >= c-j && k < c+j {
				row(j, k)
			}
		}
	}
}

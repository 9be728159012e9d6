package par

// ForBandsReduceN runs body once per band of the untiled schedule of an
// outer-axis range [lo, hi) — the bands ForTilesReduceN cuts an untiled
// box with those outer rows into — with k sums folded exactly as it folds
// them: each band accumulates into its own acc (len k, zeroed), and the
// partials are summed in band order. It is for a sweep whose row k reads
// rows k−1..k+1 of something the same sweep writes one row ahead (the
// fused CG iteration in internal/stencil steps r on row k+1, then runs the
// matvec of row k): before any band runs, edge(row) is called once for
// each row next to an internal cut — the first row of every band but the
// first, the last of every band but the last — in one parallel region of
// its own. A band may then read an edge row of its neighbour without
// further synchronisation, provided body writes nothing its neighbours
// read. With one band (one worker, or a range below the grain) edge is
// never called and body runs inline over [lo, hi).
//
// The pool's tiling is not consulted: callers wanting ForTilesReduceN's
// per-tile fold on a tiled pool must use it. The reentrancy rules of For
// apply.
func (p *Pool) ForBandsReduceN(k, lo, hi int, edge func(row int), body func(b0, b1 int, acc []float64)) []float64 {
	out := make([]float64, k)
	if hi <= lo || k == 0 {
		return out
	}
	nb := p.blocks(lo, hi)
	if nb == 1 {
		body(lo, hi, out)
		return out
	}
	n := hi - lo
	band := func(id int) (int, int) { return lo + id*n/nb, lo + (id+1)*n/nb }
	p.region(nb, func(id int) {
		b0, b1 := band(id)
		if id > 0 {
			edge(b0)
		}
		if id < nb-1 && (id == 0 || b1-1 > b0) {
			edge(b1 - 1)
		}
	})
	stride := max(k, 8) // a cache line per band, as in ForReduceN
	partial := make([]float64, nb*stride)
	p.region(nb, func(id int) {
		b0, b1 := band(id)
		body(b0, b1, partial[id*stride:id*stride+k:id*stride+k])
	})
	for bi := 0; bi < nb; bi++ {
		for i := 0; i < k; i++ {
			out[i] += partial[bi*stride+i]
		}
	}
	return out
}

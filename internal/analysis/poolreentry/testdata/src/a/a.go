// Package a holds the pool-reentrancy violations the poolreentry
// analyzer must flag.
package a

import "tealeaf/internal/par"

// nestedFor dispatches a region from inside a region body.
func nestedFor(p *par.Pool, xs []float64) {
	p.For(0, len(xs), func(lo, hi int) {
		p.For(lo, hi, func(l, h int) { // want `Pool dispatch inside a Pool parallel region`
			for i := l; i < h; i++ {
				xs[i]++
			}
		})
	})
}

// nestedReduce dispatches a reduction from inside a reduction body.
func nestedReduce(p *par.Pool, xs []float64) float64 {
	return p.ForReduce(0, len(xs), func(lo, hi int) float64 {
		return p.ForReduce(lo, hi, func(l, h int) float64 { // want `Pool dispatch inside a Pool parallel region`
			var s float64
			for i := l; i < h; i++ {
				s += xs[i]
			}
			return s
		})
	})
}

// goFromBody spawns a goroutine from a region body that dispatches: the
// goroutine races the held region and still deadlocks the team.
func goFromBody(p *par.Pool, xs []float64) {
	p.For(0, len(xs), func(lo, hi int) {
		go p.For(lo, hi, func(l, h int) {}) // want `Pool dispatch inside a Pool parallel region`
	})
}

// sumHalf is a package-local helper that dispatches.
func sumHalf(p *par.Pool, xs []float64) float64 {
	return p.ForReduce(0, len(xs)/2, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		return s
	})
}

// viaHelper reaches a dispatch through the package call graph.
func viaHelper(p *par.Pool, xs []float64) {
	p.For(0, len(xs), func(lo, hi int) {
		_ = sumHalf(p, xs) // want `call to sumHalf reaches a Pool dispatch inside a Pool parallel region`
	})
}

// viaTwoHops reaches a dispatch through two local calls.
func hop(p *par.Pool, xs []float64) float64 { return sumHalf(p, xs) }

func viaTwoHops(p *par.Pool, xs []float64) {
	p.For(0, len(xs), func(lo, hi int) {
		_ = hop(p, xs) // want `call to hop reaches a Pool dispatch inside a Pool parallel region`
	})
}

// namedBody passes a dispatching named function as the region body.
func namedBody(p *par.Pool, xs []float64) {
	dispatching := func(lo, hi int) {}
	_ = dispatching
	p.For(0, len(xs), dispatchBody) // want `dispatchBody dispatches on a Pool and is used as a Pool region body`
}

var shared *par.Pool

func dispatchBody(lo, hi int) {
	shared.For(lo, hi, func(l, h int) {})
}

// nestedTiles dispatches a band loop from inside a tiled region body:
// the tiled entry points hold the same team lock.
func nestedTiles(p *par.Pool, b par.Box, xs []float64) {
	p.ForTiles(b, func(t par.Tile) {
		p.For(t.X0, t.X1, func(l, h int) { // want `Pool dispatch inside a Pool parallel region`
			for i := l; i < h; i++ {
				xs[i]++
			}
		})
	})
}

// nestedInTileReduce dispatches from a tiled reduction body.
func nestedInTileReduce(p *par.Pool, b par.Box, xs []float64) []float64 {
	return p.ForTilesReduceN(1, b, func(t par.Tile, acc []float64) {
		p.ForTiles(b, func(par.Tile) {}) // want `Pool dispatch inside a Pool parallel region`
		acc[0]++
	})
}

// nestedInWavefront dispatches from a wavefront row callback: the
// wavefront's regions hold the same team lock.
func nestedInWavefront(p *par.Pool, xs []float64) {
	p.Wavefront(2, 0, len(xs), func(step, k int) {
		p.For(k, k+1, func(l, h int) {}) // want `Pool dispatch inside a Pool parallel region`
	})
}

// nestedInBands dispatches from a lagged-band edge callback and from a
// band body: both run inside the scheduler's regions.
func nestedInBands(p *par.Pool, xs []float64) {
	p.ForBandsReduceN(1, 0, len(xs), func(k int) {
		p.For(k, k+1, func(l, h int) {}) // want `Pool dispatch inside a Pool parallel region`
	}, func(b0, b1 int, acc []float64) {
		p.For(b0, b1, func(l, h int) {}) // want `Pool dispatch inside a Pool parallel region`
	})
}

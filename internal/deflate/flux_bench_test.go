package deflate

import (
	"fmt"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/par"
)

// Per-kernel benchmarks of the face-flux projector at the two shapes the
// repository's decks use: 2D 512² over 8×8 blocks (the bench harness's
// stiff2d_defl_512_w2 row) and 3D 64³ over 4×4×4, on 1 and 2 workers.
// CI runs them with -benchtime=1x as a smoke; b.SetBytes is the sweep's
// minimal traffic, so MB/s reads as effective bandwidth.

// benchCase is one projector under benchmark: the flat field it sweeps
// and the shared core of a 2D or 3D projector.
type benchCase struct {
	name string
	p    *projector
	w    []float64
}

func benchCases(b *testing.B) []benchCase {
	var cases []benchCase
	for _, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		b.Cleanup(pool.Close)
		op := stiffOperator(b, 512)
		d, err := New(pool, nil, op, Geometry{}, Config{BX: 8, BY: 8})
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, benchCase{fmt.Sprintf("2D-512-8x8/w%d", workers), &d.projector, randomField2D(op.Grid, 1).Data})
		op3 := stiffOperator3D(b, 64)
		d3, err := New3D(pool, nil, op3, Geometry3D{}, Config{BX: 4, BY: 4, BZ: 4})
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, benchCase{fmt.Sprintf("3D-64-4x4x4/w%d", workers), &d3.projector, randomField3D(op3.Grid, 1).Data})
	}
	return cases
}

func (c benchCase) cells() int64 { return int64(c.p.n[0] * c.p.n[1] * c.p.n[2]) }

// BenchmarkProjectW times the whole projection w ← P·w: restriction,
// coarse solve and flux correction (one read plus one read-modify-write
// of w).
func BenchmarkProjectW(b *testing.B) {
	for _, c := range benchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(c.cells() * 8 * 3)
			for i := 0; i < b.N; i++ {
				c.p.project(c.w)
			}
		})
	}
}

// BenchmarkRestrict times the pooled fixed-order restriction Wᵀ·w alone.
func BenchmarkRestrict(b *testing.B) {
	for _, c := range benchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(c.cells() * 8)
			for i := 0; i < b.N; i++ {
				c.p.restrict(c.w)
			}
		})
	}
}

// BenchmarkAssemble times the face-sum assembly and factorisation of E
// (what Refresh pays when the operator changed).
func BenchmarkAssemble(b *testing.B) {
	for _, c := range benchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.p.assemble(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCGIterDeflated is one deflated fused-CG iteration at the
// stiff2d_defl_512_w2 row's shape (512², 8×8 blocks, identity M), in ns
// per cell. "one-pass" is the engine's iteration: stencil's CGIter with
// the pending correction's face terms applied to each row of w before the
// step reads it, λ_c taken off w inside the step, and the restriction's
// row sums taken after the matvec, then the
// iteration's one reduction round carrying the scalars and Wᵀ·w, and the
// coarse solve that yields λ and bᵀλ. "parent" is the iteration it
// replaced: CGIter with the row sums, then the projection's own round,
// solve and correction sweep (projectRestricted), then the scalar round.
func BenchmarkCGIterDeflated(b *testing.B) {
	const n = 512
	op := stiffOperator(b, n)
	g := op.Grid
	r, w := randomField2D(g, 2), randomField2D(g, 3)
	p, s, x := randomField2D(g, 4), randomField2D(g, 5), randomField2D(g, 6)
	c := comm.NewSerial()
	for _, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		b.Cleanup(pool.Close)
		d, err := New(pool, c, op, Geometry{}, Config{BX: 8, BY: 8})
		if err != nil {
			b.Fatal(err)
		}
		pre := func(k int) []float64 { return d.CorrectRowFaces(w, k) }
		rows := func(k int) { d.RestrictRow(w, k) }
		b.Run(fmt.Sprintf("w%d/one-pass", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gamma, rr, delta := op.CGIter(pool, nil, r, w, 0.5, 1e-9, p, s, x, pre, rows)
				sums := c.AllReduceSumN(append([]float64{gamma, rr, delta}, d.Restriction()...))
				sums[2] -= d.SolveCoarse(sums[3:])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n), "ns/cell")
		})
		b.Run(fmt.Sprintf("w%d/parent", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gamma, rr, _ := op.CGIter(pool, nil, r, w, 0.5, 1e-9, p, s, x, nil, rows)
				delta := d.projectRestricted(w.Data, nil, r.Data)
				c.AllReduceSumN([]float64{gamma, rr, delta})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n), "ns/cell")
		})
	}
}

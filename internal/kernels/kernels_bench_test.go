package kernels_test

import (
	"fmt"
	"testing"

	"tealeaf/internal/grid"
	. "tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// Per-kernel benchmarks at the paper-relevant mesh sizes. b.SetBytes is
// the kernel's memory traffic per sweep (reads + writes, 8 bytes each,
// counting read-modify-write fields twice), so the MB/s column is the
// achieved effective bandwidth — the figure of merit for every kernel in
// this package (§III-A).

func benchGrid(n int) *grid.Grid2D { return grid.UnitGrid2D(n, n, 2) }

func benchField(g *grid.Grid2D, seed int64) *grid.Field2D {
	return testField(g, seed)
}

func benchOp(g *grid.Grid2D) *stencil.Operator2D {
	den := grid.NewField2D(g)
	den.Fill(1.7)
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		panic(err)
	}
	return op
}

func sizes() []int { return []int{1024, 2048} }

func BenchmarkDot(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			x, y := benchField(g, 1), benchField(g, 2)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 2)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += Dot(par.Serial, in, x, y)
			}
			_ = sink
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			x, y := benchField(g, 1), benchField(g, 2)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Axpy(par.Serial, in, 1e-9, x, y)
			}
		})
	}
}

func BenchmarkApply(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			op := benchOp(g)
			p, w := benchField(g, 1), grid.NewField2D(g)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Apply(par.Serial, in, p, w)
			}
		})
	}
}

func BenchmarkApplyDot(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			op := benchOp(g)
			p, w := benchField(g, 1), grid.NewField2D(g)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 5)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += op.ApplyDot(par.Serial, in, p, w)
			}
			_ = sink
		})
	}
}

func BenchmarkApplyDot2(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			op := benchOp(g)
			p, w := benchField(g, 1), grid.NewField2D(g)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 5)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				pw, ww := op.ApplyDot2(par.Serial, in, p, w)
				sink += pw + ww
			}
			_ = sink
		})
	}
}

func BenchmarkFusedCGDirections(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			minv, r, w := benchField(g, 1), benchField(g, 2), benchField(g, 3)
			p, s := benchField(g, 4), benchField(g, 5)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FusedCGDirections(par.Serial, in, minv, r, w, 0.5, p, s)
			}
		})
	}
}

func BenchmarkFusedCGUpdate(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			minv, pv, sv := benchField(g, 1), benchField(g, 2), benchField(g, 3)
			x, r := benchField(g, 4), benchField(g, 5)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 7)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				gamma, rr := FusedCGUpdate(par.Serial, in, 1e-9, pv, sv, x, r, minv)
				sink += gamma + rr
			}
			_ = sink
		})
	}
}

// reportNsPerCell adds the sweep's time per grid cell to the benchmark
// line, the unit the bench harness's per-layer numbers use.
func reportNsPerCell(b *testing.B, cells int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}

// BenchmarkFusedCGStep is the merged sweep the fused engine runs in place
// of the two above: ten field visits (m, r, p, x, w, s read; p, x, s, r
// written) against their fourteen.
func BenchmarkFusedCGStep(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			minv, r, w := benchField(g, 1), benchField(g, 2), benchField(g, 3)
			p, s, x := benchField(g, 4), benchField(g, 5), benchField(g, 6)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 10)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				gamma, rr := FusedCGStep(par.Serial, in, minv, r, w, 0.5, 1e-9, p, s, x)
				sink += gamma + rr
			}
			reportNsPerCell(b, n*n)
			_ = sink
		})
	}
}

// BenchmarkFusedCGStep3D is the same sweep on the bench harness's 128³
// mesh, on one and two workers.
func BenchmarkFusedCGStep3D(b *testing.B) {
	const n = 128
	g := grid.UnitGrid3D(n, n, n, 2)
	mk := func(seed int64) *grid.Field3D {
		f := grid.NewField3D(g)
		rng := newRng(seed)
		for i := range f.Data {
			f.Data[i] = rng.Float64()
		}
		return f
	}
	minv, r, w := mk(1), mk(2), mk(3)
	p, s, x := mk(4), mk(5), mk(6)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := par.NewPool(workers)
			defer pool.Close()
			b.SetBytes(int64(n*n*n) * 8 * 10)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				gamma, rr := FusedCGStep3D(pool, g.Interior(), minv, r, w, 0.5, 1e-9, p, s, x)
				sink += gamma + rr
			}
			reportNsPerCell(b, n*n*n)
			_ = sink
		})
	}
}

func BenchmarkFusedPPCGInner(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			minv, w := benchField(g, 1), benchField(g, 2)
			rtemp, sd, z := benchField(g, 3), benchField(g, 4), benchField(g, 5)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FusedPPCGInner(par.Serial, in, in, 0.9, 0.1, w, rtemp, minv, sd, z)
			}
		})
	}
}

// BenchmarkPointwise3D runs the pointwise kernels through their 3D
// adapters on the bench harness's 128³ mesh, on one and two workers: the
// row walker's 3D case (NY rows per z-plane, bands of whole planes),
// next to the 2D sweeps above. SetBytes counts field visits as above;
// PPCGInnerInit3D is its pre-loop form (no outer update).
func BenchmarkPointwise3D(b *testing.B) {
	const n = 128
	g := grid.UnitGrid3D(n, n, n, 2)
	var f [6]*grid.Field3D
	for i := range f {
		f[i] = grid.NewField3D(g)
		rng := newRng(int64(i + 1))
		for c := range f[i].Data {
			f[i].Data[c] = 0.5 + rng.Float64()
		}
	}
	in := g.Interior()
	var sink float64
	cases := []struct {
		name   string
		visits int
		run    func(p *par.Pool)
	}{
		{"Dot3D", 2, func(p *par.Pool) { sink += Dot3D(p, in, f[0], f[1]) }},
		{"Dot23D", 3, func(p *par.Pool) {
			xy, yz := Dot23D(p, in, f[0], f[1], f[2])
			sink += xy + yz
		}},
		{"Axpy3D", 3, func(p *par.Pool) { Axpy3D(p, in, 1e-9, f[0], f[1]) }},
		{"Xpay3D", 3, func(p *par.Pool) { Xpay3D(p, in, f[0], 0.5, f[1]) }},
		{"Copy3D", 2, func(p *par.Pool) { Copy3D(p, in, f[1], f[0]) }},
		{"ScaleTo3D", 2, func(p *par.Pool) { ScaleTo3D(p, in, 1, f[0], f[1]) }},
		{"AxpyAxpy3D", 6, func(p *par.Pool) { AxpyAxpy3D(p, in, 1e-9, f[0], f[1], -1e-9, f[2], f[3]) }},
		{"AxpbyPre3D", 4, func(p *par.Pool) { AxpbyPre3D(p, in, 0.5, f[0], 0.5, f[1], f[2]) }},
		{"FusedCGDirections3D", 7, func(p *par.Pool) { FusedCGDirections3D(p, in, f[0], f[1], f[2], 0.5, f[3], f[4]) }},
		{"FusedCGUpdate3D", 7, func(p *par.Pool) {
			gamma, rr := FusedCGUpdate3D(p, in, 1e-9, f[0], f[1], f[2], f[3], f[4])
			sink += gamma + rr
		}},
		{"FusedPPCGInner3D", 8, func(p *par.Pool) { FusedPPCGInner3D(p, in, in, 0.9, 0.1, f[0], f[1], f[2], f[3], f[4]) }},
		{"PPCGInnerInit3D", 5, func(p *par.Pool) {
			PPCGInnerInit3D(p, in, 0, nil, nil, nil, f[0], f[1], 0.5, f[2], f[3], f[4])
		}},
	}
	for _, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				b.SetBytes(int64(n*n*n) * 8 * int64(c.visits))
				for i := 0; i < b.N; i++ {
					c.run(pool)
				}
				reportNsPerCell(b, n*n*n)
			})
		}
		pool.Close()
	}
	_ = sink
}

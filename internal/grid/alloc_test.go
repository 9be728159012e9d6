package grid

import (
	"runtime/debug"
	"testing"
)

func mustGrid2D(t testing.TB, nx, ny, halo int) *Grid2D {
	g, err := NewGrid2D(nx, ny, halo, 0, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustGrid3D(t testing.TB, nx, ny, nz, halo int) *Grid3D {
	g, err := NewGrid3D(nx, ny, nz, halo, 0, 1, 0, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// BenchmarkNewField allocates a field and touches each of its 4 KiB
// pages once, from memory handed back to the kernel before every
// iteration, as a cold set-up would: ns/page is the fault cost a field's
// first sweep pays.
func BenchmarkNewField(b *testing.B) {
	for _, c := range []struct {
		name string
		make func() []float64
	}{
		{"2D_1026x1026", func() []float64 { return NewField2D(mustGrid2D(b, 1024, 1024, 1)).Data }},
		{"3D_130x130x130", func() []float64 { return NewField3D(mustGrid3D(b, 128, 128, 128, 1)).Data }},
	} {
		b.Run(c.name, func(b *testing.B) {
			pages := 0
			for range b.N {
				b.StopTimer()
				debug.FreeOSMemory()
				b.StartTimer()
				d := c.make()
				for i := 0; i < len(d); i += 4096 / 8 {
					d[i] = 1
				}
				pages += (len(d) + 4096/8 - 1) / (4096 / 8)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
		})
	}
}

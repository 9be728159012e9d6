package comm

import (
	"testing"
	"time"

	"tealeaf/internal/grid"
)

// BenchmarkTCPSyncCadence times one synchronisation at the cadence a
// distributed CG solve pays it: two RunTCP ranks, each doing ≈100 µs of
// local work on its 128×256 half of a 256×256 field, then a fused
// AllReduceSumN of 3 values, then a depth-1 halo exchange. A tight
// reduce loop (bench/'s host.tcp_reduce_rtt_us) keeps both ranks hot on
// their sockets and reads ~10 µs; with compute between synchronisations
// each rank arrives to an idle socket and a parked peer, which is where
// an extra goroutine hop or an allocation per frame shows. ns/op is one
// work + reduce + exchange round, so subtract the ≈100 µs of work.
func BenchmarkTCPSyncCadence(b *testing.B) {
	part := grid.MustPartition(256, 256, 2, 1)
	gg := grid.UnitGrid2D(256, 256, 1)
	b.ReportAllocs()
	err := RunTCP(part, func(c Communicator) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		f := grid.NewField2D(sub)
		paint2D(f, ext)
		work := func(passes int) float64 {
			var s float64
			for p := 0; p < passes; p++ {
				for i, v := range f.Data {
					v = 0.999*v + 1e-3
					f.Data[i] = v
					s += v
				}
			}
			return s
		}
		// Size the local work on this host: time a few passes, then run
		// as many per round as fill ≈100 µs.
		start := time.Now()
		work(8)
		passes := max(1, int(8*100*time.Microsecond/max(time.Since(start), 1)))

		sums := make([]float64, 3)
		round := func() error {
			s := work(passes)
			sums[0], sums[1], sums[2] = s, 1, float64(c.Rank())
			c.AllReduceSumN(sums)
			return c.Exchange(1, f)
		}
		if err := round(); err != nil { // connect, size the buffers
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := round(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

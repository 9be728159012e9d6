package comm

import (
	"fmt"
	"testing"

	"tealeaf/internal/grid"
)

// BenchmarkExchange times one halo exchange of one field between two
// ranks split in x, on the Hub and on TCP loopback: 2D 1024² at depths 1
// and 4, and 3D 128³ at depth 1. ns/op is one exchange as rank 0 sees
// it, both ranks warmed; allocs/op counts the whole process, so both
// ranks (a warmed exchange allocates nothing; the field slice is built
// once, as a variadic call through the interface would allocate one per
// call). It uses only the exported API.
func BenchmarkExchange(b *testing.B) {
	part := grid.MustPartition(1024, 1024, 2, 1)
	part3 := grid.MustPartition3D(128, 128, 128, 2, 1, 1)
	backends := []struct {
		name       string
		run, run3D func(fn func(c Communicator) error) error
	}{
		{"hub",
			func(fn func(c Communicator) error) error {
				return Run(part, func(c *RankComm) error { return fn(c) })
			},
			func(fn func(c Communicator) error) error {
				return Run3D(part3, func(c *RankComm) error { return fn(c) })
			}},
		{"tcp",
			func(fn func(c Communicator) error) error { return RunTCP(part, fn) },
			func(fn func(c Communicator) error) error { return RunTCP3D(part3, fn) }},
	}
	for _, be := range backends {
		for _, depth := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/2d1024/depth%d", be.name, depth), func(b *testing.B) {
				gg := grid.UnitGrid2D(1024, 1024, depth)
				err := be.run(func(c Communicator) error {
					e := part.ExtentOf(c.Rank())
					sub, err := gg.Sub(e.X0, e.X1, e.Y0, e.Y1)
					if err != nil {
						return err
					}
					fields := []*grid.Field2D{grid.NewField2D(sub)}
					return timeExchanges(b, c, func() error { return c.Exchange(depth, fields...) })
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
		b.Run(be.name+"/3d128/depth1", func(b *testing.B) {
			gg := grid.UnitGrid3D(128, 128, 128, 1)
			err := be.run3D(func(c Communicator) error {
				e := part3.ExtentOf(c.Rank())
				sub, err := gg.Sub(e.X0, e.X1, e.Y0, e.Y1, e.Z0, e.Z1)
				if err != nil {
					return err
				}
				fields := []*grid.Field3D{grid.NewField3D(sub)}
				return timeExchanges(b, c, func() error { return c.Exchange3D(1, fields...) })
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// timeExchanges warms exchange up on every rank, then times b.N calls of
// it on rank 0 while the other ranks make the same calls.
func timeExchanges(b *testing.B, c Communicator, exchange func() error) error {
	for range 3 {
		if err := exchange(); err != nil {
			return err
		}
	}
	c.Barrier()
	if c.Rank() == 0 {
		b.ReportAllocs()
		b.ResetTimer()
	}
	for range b.N {
		if err := exchange(); err != nil {
			return err
		}
	}
	if c.Rank() == 0 {
		b.StopTimer()
	}
	return nil
}

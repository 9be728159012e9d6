package comm

import (
	"fmt"
	"testing"

	"tealeaf/internal/grid"
)

// TestHubExchangeSteadyStateAllocs: once each rank's free list holds the
// slabs its neighbours sent it, a Hub exchange allocates nothing, 2D and
// 3D, with exchanges of different depths and field counts interleaved
// (AllocsPerRun counts the whole process, so rank 1's share is in it).
// Each round repaints the interior and checks the x halos afterwards, so
// a slab reused while its receiver still read it would show as a wrong
// halo value.
func TestHubExchangeSteadyStateAllocs(t *testing.T) {
	const runs = 100
	for _, dims := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dD", dims), func(t *testing.T) {
			var allocs float64
			var bad [2]int // per rank
			body := func(c *RankComm, round func(k int) error) error {
				for k := range 10 {
					if err := round(k); err != nil {
						return err
					}
				}
				var err error
				k := 10
				step := func() {
					if e := round(k); e != nil {
						err = e
					}
					k++
				}
				if c.Rank() == 0 {
					allocs = testing.AllocsPerRun(runs, step)
				} else {
					for range runs + 1 { // AllocsPerRun makes one warm-up call
						step()
					}
				}
				return err
			}
			var err error
			if dims == 2 {
				part := grid.MustPartition(24, 16, 2, 1)
				gg := grid.UnitGrid2D(24, 16, 2)
				err = Run(part, func(c *RankComm) error {
					ext := part.ExtentOf(c.Rank())
					sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
					if err != nil {
						return err
					}
					a, b := grid.NewField2D(sub), grid.NewField2D(sub)
					one, two := []*grid.Field2D{a}, []*grid.Field2D{a, b}
					return body(c, func(k int) error {
						for y := 0; y < sub.NY; y++ {
							for x := 0; x < sub.NX; x++ {
								a.Set(x, y, float64(k*100000+(ext.X0+x)*100+y))
							}
						}
						fields, depth := one, 1
						if k%2 == 1 {
							fields, depth = two, 2
						}
						if err := c.Exchange(depth, fields...); err != nil {
							return err
						}
						// The halo column next to the rank boundary holds the
						// neighbour's interior column.
						x, gx := -1, ext.X0-1
						if c.Rank() == 0 {
							x, gx = sub.NX, ext.X1
						}
						for y := 0; y < sub.NY; y++ {
							if a.At(x, y) != float64(k*100000+gx*100+y) {
								bad[c.Rank()]++
							}
						}
						return nil
					})
				})
			} else {
				part := grid.MustPartition3D(12, 8, 6, 2, 1, 1)
				gg := grid.UnitGrid3D(12, 8, 6, 2)
				err = Run3D(part, func(c *RankComm) error {
					ext := part.ExtentOf(c.Rank())
					sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1, ext.Z0, ext.Z1)
					if err != nil {
						return err
					}
					a, b := grid.NewField3D(sub), grid.NewField3D(sub)
					one, two := []*grid.Field3D{a}, []*grid.Field3D{a, b}
					return body(c, func(k int) error {
						for z := 0; z < sub.NZ; z++ {
							for y := 0; y < sub.NY; y++ {
								for x := 0; x < sub.NX; x++ {
									a.Set(x, y, z, float64(k*100000+(ext.X0+x)*1000+y*10+z))
								}
							}
						}
						fields, depth := one, 1
						if k%2 == 1 {
							fields, depth = two, 2
						}
						if err := c.Exchange3D(depth, fields...); err != nil {
							return err
						}
						x, gx := -1, ext.X0-1
						if c.Rank() == 0 {
							x, gx = sub.NX, ext.X1
						}
						for z := 0; z < sub.NZ; z++ {
							for y := 0; y < sub.NY; y++ {
								if a.At(x, y, z) != float64(k*100000+gx*1000+y*10+z) {
									bad[c.Rank()]++
								}
							}
						}
						return nil
					})
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("steady-state Hub exchange allocates %v times per round, want 0", allocs)
			}
			if bad != [2]int{} {
				t.Errorf("halo cells holding the wrong value, per rank: %v", bad)
			}
		})
	}
}

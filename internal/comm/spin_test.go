package comm

import (
	"fmt"
	"testing"
	"time"

	"tealeaf/internal/grid"
	"tealeaf/internal/place"
)

// late is how long a late peer keeps its partner waiting: past the spin
// window, so the waiter has given up spinning and parked.
const late = 3 * place.SpinWindow

// lateRounds has rank 1 arrive late, rank 0 on time, at each wait a
// rank's solve makes: a halo slab and a reduction. Every value must still
// arrive.
func lateRounds(c Communicator, f *grid.Field2D, x0 int) error {
	g := f.Grid
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			f.Set(x, y, float64((x0+x)*100+y))
		}
	}
	wait := func() {
		if c.Rank() == 1 {
			time.Sleep(late)
		}
	}
	wait()
	if err := c.Exchange(1, f); err != nil {
		return err
	}
	hx, gx := g.NX, x0+g.NX // the halo column beside the other rank
	if c.Rank() == 1 {
		hx, gx = -1, x0-1
	}
	for y := 0; y < g.NY; y++ {
		if got := f.At(hx, y); got != float64(gx*100+y) {
			return fmt.Errorf("rank %d: late halo cell (%d,%d) = %v, want %v", c.Rank(), hx, y, got, float64(gx*100+y))
		}
	}
	wait()
	if a, b := c.AllReduceSum2(1, float64(c.Rank())); a != 2 || b != 1 {
		return fmt.Errorf("rank %d: late AllReduceSum2 = (%v, %v), want (2, 1)", c.Rank(), a, b)
	}
	return nil
}

func lateField(part *grid.Partition, rank int) (*grid.Field2D, int) {
	ext := part.ExtentOf(rank)
	sub, err := grid.UnitGrid2D(16, 8, 1).Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
	if err != nil {
		panic(err)
	}
	return grid.NewField2D(sub), ext.X0
}

// A Hub rank's slab receive and collective wait, and a TCP rank's frame
// read, each deliver a peer's value that comes after the waiter parked.
func TestLatePeers(t *testing.T) {
	part := grid.MustPartition(16, 8, 2, 1)
	t.Run("hub", func(t *testing.T) {
		err := Run(part, func(c *RankComm) error {
			f, x0 := lateField(part, c.Rank())
			return lateRounds(c, f, x0)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		err := RunTCP(part, func(c Communicator) error {
			f, x0 := lateField(part, c.Rank())
			return lateRounds(c, f, x0)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// A warmed 2-rank Hub reduction round allocates nothing: the result
// buffer and the wake channels are reused.
// AllocsPerRun counts the whole process, so rank 1's share is in it.
func TestHubReduceSteadyStateAllocs(t *testing.T) {
	const runs = 100
	part := grid.MustPartition(8, 8, 2, 1)
	rounds := map[string]func(c *RankComm, vals []float64) bool{
		"AllReduceSumN": func(c *RankComm, vals []float64) bool {
			vals[0], vals[1], vals[2] = 1, 2, float64(c.Rank())
			s := c.AllReduceSumN(vals)
			return s[0] == 2 && s[1] == 4 && s[2] == 1
		},
		"AllReduceSum2": func(c *RankComm, _ []float64) bool {
			a, b := c.AllReduceSum2(1, float64(c.Rank()))
			return a == 2 && b == 1
		},
	}
	for name, round := range rounds {
		t.Run(name, func(t *testing.T) {
			var allocs float64
			var bad [2]int
			err := Run(part, func(c *RankComm) error {
				vals := make([]float64, 3)
				step := func() {
					if !round(c, vals) {
						bad[c.Rank()]++
					}
				}
				for range 10 {
					step()
				}
				if c.Rank() == 0 {
					allocs = testing.AllocsPerRun(runs, step)
				} else {
					for range runs + 1 { // AllocsPerRun makes one warm-up call
						step()
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("warmed 2-rank Hub %s allocates %v times per round, want 0", name, allocs)
			}
			if bad != [2]int{} {
				t.Errorf("wrong results per rank: %v", bad)
			}
		})
	}
}

// The ranks of Run are claimed on the host's CPUs while they run and
// join one place.Group, as RunTCP's do.
func TestRunClaimsAndGroupsRanks(t *testing.T) {
	part := grid.MustPartition(8, 8, 2, 1)
	before := place.Busy()
	err := Run(part, func(c *RankComm) error {
		if got, want := place.Busy(), before+1; got != want {
			return fmt.Errorf("rank %d: %d busy threads inside a 2-rank Run, want %d", c.Rank(), got, want)
		}
		if (c.hub.apart == nil) != (place.NewGroup(2) == nil) {
			return fmt.Errorf("rank %d: Hub group is %v where a 2-member group would be %v", c.Rank(), c.hub.apart, place.NewGroup(2))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if place.Busy() != before {
		t.Errorf("%d busy threads after Run, %d before", place.Busy(), before)
	}
}

// A TCP rank counts its peers on this host's loopback addresses as
// processes sharing its CPUs, for as long as it is open; RunTCP's ranks,
// goroutines of one process, count as threads instead.
func TestTCPCountsLoopbackPeers(t *testing.T) {
	peers := []string{"127.0.0.1:1", "[::1]:2", "localhost:3", "10.1.2.3:4", "node7:5", "bad"}
	if n := loopbackPeers(peers, 0); n != 2 {
		t.Errorf("loopbackPeers from rank 0 = %d, want 2 (::1, localhost)", n)
	}
	if n := loopbackPeers(peers, 3); n != 3 {
		t.Errorf("loopbackPeers from rank 3 = %d, want 3", n)
	}

	before := place.Busy()
	part := grid.MustPartition(8, 8, 3, 1)
	c, err := NewTCP(TCPConfig{Rank: 0, Peers: []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:2"}, Part: part})
	if err != nil {
		t.Fatal(err)
	}
	if got := place.Busy(); got != 3*before {
		t.Errorf("%d busy threads with a rank of 3 on loopback open, want %d", got, 3*before)
	}
	c.Close()
	c.Close()
	if got := place.Busy(); got != before {
		t.Errorf("%d busy threads after Close, want %d", got, before)
	}
	err = RunTCP(part, func(Communicator) error {
		if got := place.Busy(); got != before+2 {
			return fmt.Errorf("%d busy threads inside a 3-rank RunTCP, want %d", got, before+2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

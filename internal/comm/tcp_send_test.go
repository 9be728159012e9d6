package comm

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"tealeaf/internal/grid"
)

// Tests for the TCP send path: a send is an inline non-blocking write
// attempt whose unwritten tail goes to the writer goroutine. They pin
// what that goroutine exists for (a send never waits for the peer),
// that the queued tail keeps the wire in posting order, and that the
// steady-state path allocates nothing.

// tcpPair returns the two ranks of a 2×1 loopback run with their
// connection established, closed again when the test ends.
func tcpPair(t *testing.T) (c0, c1 *TCP) {
	t.Helper()
	part := grid.MustPartition(8, 8, 2, 1)
	lns := make([]net.Listener, 2)
	peers := make([]string, 2)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	cs := make([]*TCP, 2)
	for r := range cs {
		c, err := NewTCP(TCPConfig{Rank: r, Peers: peers, Part: part, Listener: lns[r], DialTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cs[r] = c
	}
	bothRanks(t, cs[0], cs[1], 10*time.Second, func(c *TCP) error {
		return c.Protect(func() error { c.Barrier(); return nil })
	})
	return cs[0], cs[1]
}

// bothRanks runs fn as each rank's driver and fails the test if either
// returns an error or both have not finished inside the deadline.
func bothRanks(t *testing.T, c0, c1 *TCP, deadline time.Duration, fn func(c *TCP) error) {
	t.Helper()
	errs := make(chan error, 2)
	for _, c := range []*TCP{c0, c1} {
		go func() { errs <- fn(c) }()
	}
	timeout := time.After(deadline)
	for range 2 {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("ranks still running after %v: a send is waiting for the peer's progress", deadline)
		}
	}
}

// shrinkSocketBuffers caps the kernel buffering of c's connection to
// peer, so a few hundred KiB in flight fill it.
func shrinkSocketBuffers(t *testing.T, c *TCP, peer int) {
	t.Helper()
	pc, err := c.conn(peer)
	if err != nil {
		t.Fatal(err)
	}
	tc := pc.nc.(*net.TCPConn)
	if err := tc.SetWriteBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	if err := tc.SetReadBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
}

// bitPattern fills a slab with every kind of float64 bit pattern
// (including NaN payloads), so "bit-exact" means something.
func bitPattern(n int, seed uint64) []float64 {
	vals := make([]float64, n)
	x := seed
	for i := range vals {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		vals[i] = math.Float64frombits(z ^ (z >> 31))
	}
	return vals
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

const bigSlab = 512 << 10 // values: a 4 MiB frame, far beyond the shrunk socket buffers

// TestTCPSendNeverWaitsForPeer pins the slabTransport contract the
// writer goroutine exists for: both ranks post a slab larger than the
// socket buffers before either receives, which a send that blocks in
// write(2) until the peer drains can never finish.
func TestTCPSendNeverWaitsForPeer(t *testing.T) {
	c0, c1 := tcpPair(t)
	shrinkSocketBuffers(t, c0, 1)
	shrinkSocketBuffers(t, c1, 0)
	var posted sync.WaitGroup
	posted.Add(2)
	bothRanks(t, c0, c1, 20*time.Second, func(c *TCP) error {
		peer := 1 - c.rank
		if err := c.send(peer, frameExchange, byte(grid.Left), bitPattern(bigSlab, uint64(c.rank))); err != nil {
			return err
		}
		posted.Done()
		posted.Wait() // neither rank receives until both sends have returned
		got, err := c.recvFloats(peer, frameExchange, byte(grid.Left), "exchange")
		if err != nil {
			return err
		}
		if !sameBits(got, bitPattern(bigSlab, uint64(peer))) {
			t.Errorf("rank %d: oversized slab from rank %d arrived corrupted", c.rank, peer)
		}
		return nil
	})
}

// TestTCPQueuedTailKeepsOrder: a large frame the kernel takes only part
// of leaves its tail with the writer goroutine; the small reduce and
// exchange frames posted next must queue behind it rather than overtake
// it on the inline path, and everything must arrive bit-exact. The
// receiver first holds off until all three are posted (the tail is
// certainly still queued), then drains while they are being posted (the
// socket keeps freeing room an inline attempt could slip into).
func TestTCPQueuedTailKeepsOrder(t *testing.T) {
	c0, c1 := tcpPair(t)
	shrinkSocketBuffers(t, c0, 1)
	shrinkSocketBuffers(t, c1, 0)
	big, sums, halo := bitPattern(bigSlab, 1), bitPattern(3, 2), bitPattern(256, 3)
	for _, draining := range []bool{false, true, true, true} {
		posted := make(chan struct{})
		if draining {
			close(posted)
		}
		bothRanks(t, c0, c1, 20*time.Second, func(c *TCP) error {
			if c.rank == 0 {
				if !draining {
					defer close(posted)
				}
				if err := c.send(1, frameExchange, byte(grid.Left), big); err != nil {
					return err
				}
				pc, _ := c.conn(1)
				pc.mu.Lock()
				queued := len(pc.queue)
				pc.mu.Unlock()
				if queued == 0 && !draining {
					t.Errorf("a %d-byte frame went out whole through shrunk socket buffers: the queued-tail path is not exercised", 8*bigSlab)
				}
				if err := c.send(1, frameReduce, 0, sums); err != nil {
					return err
				}
				return c.send(1, frameExchange, byte(grid.Right), halo)
			}
			<-posted
			// recvFloats takes the next frame on the connection and fails
			// with a desync error on any other: a frame that overtook one
			// posted before it fails here.
			for _, want := range []struct {
				typ, tag byte
				vals     []float64
			}{
				{frameExchange, byte(grid.Left), big},
				{frameReduce, 0, sums},
				{frameExchange, byte(grid.Right), halo},
			} {
				got, err := c.recvFloats(0, want.typ, want.tag, "ordering test")
				if err != nil {
					return err
				}
				if !sameBits(got, want.vals) {
					t.Errorf("%s frame (tag %d) arrived corrupted", frameTypeName(want.typ), want.tag)
				}
			}
			return nil
		})
	}
}

// TestTCPSteadyStateAllocs: once buffers are sized, a halo exchange plus
// a fused reduction allocates nothing inside comm on either rank
// (AllocsPerRun counts the whole process, so rank 1's share is in it).
func TestTCPSteadyStateAllocs(t *testing.T) {
	const runs = 200
	part := grid.MustPartition(64, 64, 2, 1)
	gg := grid.UnitGrid2D(64, 64, 2)
	var allocs float64
	err := RunTCP(part, func(c Communicator) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		f := grid.NewField2D(sub)
		paint2D(f, ext)
		fields := []*grid.Field2D{f} // Exchange(1, f) would allocate this per call, in the caller
		sums := make([]float64, 3)
		var roundErr error
		round := func() {
			sums[0], sums[1], sums[2] = 1, 2, float64(c.Rank())
			c.AllReduceSumN(sums)
			if err := c.Exchange(1, fields...); err != nil {
				roundErr = err
			}
		}
		for range 10 {
			round()
		}
		if c.Rank() == 0 {
			allocs = testing.AllocsPerRun(runs, round)
		} else {
			for range runs + 1 { // AllocsPerRun makes one warm-up call
				round()
			}
		}
		return roundErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state Exchange + AllReduceSumN allocates %v times per round, want 0", allocs)
	}
}

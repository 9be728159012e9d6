package comm

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tealeaf/internal/grid"
)

// paint2D gives every interior cell a globally unique value so halo
// correctness is checkable cell-by-cell.
func paint2D(f *grid.Field2D, ext grid.Extent) {
	for k := 0; k < f.Grid.NY; k++ {
		for j := 0; j < f.Grid.NX; j++ {
			f.Set(j, k, float64((ext.Y0+k)*1000+(ext.X0+j)))
		}
	}
}

func paint3D(f *grid.Field3D, ext grid.Extent3D) {
	for k := 0; k < f.Grid.NZ; k++ {
		for j := 0; j < f.Grid.NY; j++ {
			for i := 0; i < f.Grid.NX; i++ {
				f.Set(i, j, k, float64((ext.Z0+k)*1e6+(ext.Y0+j)*1000+(ext.X0+i)))
			}
		}
	}
}

// TestTCPMatchesHub2D pins the TCP backend against the Hub reference on
// the full 2D surface: exchange (all depths), fused reductions, max,
// barrier and gather, comparing every halo cell bit-for-bit.
func TestTCPMatchesHub2D(t *testing.T) {
	const nx, ny, halo = 12, 10, 3
	for _, layout := range [][2]int{{2, 1}, {2, 2}, {4, 1}} {
		for depth := 1; depth <= 3; depth++ {
			part := grid.MustPartition(nx, ny, layout[0], layout[1])
			gg := grid.UnitGrid2D(nx, ny, halo)

			type rankOut struct {
				field    []float64
				sums     []float64
				max      float64
				gathered *grid.Field2D
			}
			run := func(runner func(fn func(c Communicator) error) error) ([]rankOut, error) {
				outs := make([]rankOut, part.Ranks())
				err := runner(func(c Communicator) error {
					ext := part.ExtentOf(c.Rank())
					sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
					if err != nil {
						return err
					}
					f := grid.NewField2D(sub)
					paint2D(f, ext)
					if err := c.Exchange(depth, f); err != nil {
						return err
					}
					sums := c.AllReduceSumN([]float64{float64(c.Rank() + 1), 2, 3})
					mx := c.AllReduceMax(float64(c.Rank()))
					c.Barrier()
					var dst *grid.Field2D
					if c.Rank() == 0 {
						dst = grid.NewField2D(gg)
					}
					if err := c.GatherInterior(f, dst); err != nil {
						return err
					}
					outs[c.Rank()] = rankOut{field: append([]float64(nil), f.Data...), sums: sums, max: mx, gathered: dst}
					return nil
				})
				return outs, err
			}

			hubOuts, err := run(func(fn func(c Communicator) error) error {
				return Run(part, func(c *RankComm) error { return fn(c) })
			})
			if err != nil {
				t.Fatalf("hub %vx depth %d: %v", layout, depth, err)
			}
			tcpOuts, err := run(func(fn func(c Communicator) error) error {
				return RunTCP(part, fn)
			})
			if err != nil {
				t.Fatalf("tcp %vx depth %d: %v", layout, depth, err)
			}
			for r := range hubOuts {
				if len(hubOuts[r].field) != len(tcpOuts[r].field) {
					t.Fatalf("%v depth %d rank %d: field length mismatch", layout, depth, r)
				}
				for i := range hubOuts[r].field {
					if hubOuts[r].field[i] != tcpOuts[r].field[i] {
						t.Fatalf("%v depth %d rank %d: halo cell %d: hub %v tcp %v",
							layout, depth, r, i, hubOuts[r].field[i], tcpOuts[r].field[i])
					}
				}
				for i := range hubOuts[r].sums {
					if math.Abs(hubOuts[r].sums[i]-tcpOuts[r].sums[i]) > 1e-12 {
						t.Errorf("%v depth %d rank %d: sum %d: hub %v tcp %v",
							layout, depth, r, i, hubOuts[r].sums[i], tcpOuts[r].sums[i])
					}
				}
				if hubOuts[r].max != tcpOuts[r].max {
					t.Errorf("%v depth %d rank %d: max: hub %v tcp %v", layout, depth, r, hubOuts[r].max, tcpOuts[r].max)
				}
			}
			hg, tg := hubOuts[0].gathered, tcpOuts[0].gathered
			for k := 0; k < ny; k++ {
				for j := 0; j < nx; j++ {
					if hg.At(j, k) != tg.At(j, k) {
						t.Fatalf("%v depth %d: gathered (%d,%d): hub %v tcp %v", layout, depth, j, k, hg.At(j, k), tg.At(j, k))
					}
				}
			}
		}
	}
}

// TestTCPMatchesHub3D pins Exchange3D and GatherInterior3D against the
// Hub on a 2x1x2 box decomposition with a deep halo.
func TestTCPMatchesHub3D(t *testing.T) {
	const nx, ny, nz, halo = 8, 6, 8, 2
	part := grid.MustPartition3D(nx, ny, nz, 2, 1, 2)
	gg := grid.UnitGrid3D(nx, ny, nz, halo)
	for depth := 1; depth <= 2; depth++ {
		run := func(runner func(fn func(c Communicator) error) error) ([][]float64, *grid.Field3D, error) {
			fields := make([][]float64, part.Ranks())
			var gathered *grid.Field3D
			err := runner(func(c Communicator) error {
				ext := part.ExtentOf(c.Rank())
				sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1, ext.Z0, ext.Z1)
				if err != nil {
					return err
				}
				f := grid.NewField3D(sub)
				paint3D(f, ext)
				if err := c.Exchange3D(depth, f); err != nil {
					return err
				}
				var dst *grid.Field3D
				if c.Rank() == 0 {
					dst = grid.NewField3D(gg)
					gathered = dst
				}
				if err := c.GatherInterior3D(f, dst); err != nil {
					return err
				}
				fields[c.Rank()] = append([]float64(nil), f.Data...)
				return nil
			})
			return fields, gathered, err
		}
		hubF, hubG, err := run(func(fn func(c Communicator) error) error {
			return Run3D(part, func(c *RankComm) error { return fn(c) })
		})
		if err != nil {
			t.Fatalf("hub depth %d: %v", depth, err)
		}
		tcpF, tcpG, err := run(func(fn func(c Communicator) error) error {
			return RunTCP3D(part, fn)
		})
		if err != nil {
			t.Fatalf("tcp depth %d: %v", depth, err)
		}
		for r := range hubF {
			for i := range hubF[r] {
				if hubF[r][i] != tcpF[r][i] {
					t.Fatalf("depth %d rank %d cell %d: hub %v tcp %v", depth, r, i, hubF[r][i], tcpF[r][i])
				}
			}
		}
		for i := range hubG.Data {
			if hubG.Data[i] != tcpG.Data[i] {
				t.Fatalf("depth %d: gathered cell %d: hub %v tcp %v", depth, i, hubG.Data[i], tcpG.Data[i])
			}
		}
	}
}

// TestTCPSingleRank checks the degenerate one-rank TCP communicator:
// reductions are identities, exchanges reflect, gather copies.
func TestTCPSingleRank(t *testing.T) {
	part := grid.MustPartition(8, 8, 1, 1)
	err := RunTCP(part, func(c Communicator) error {
		if c.Size() != 1 || c.Rank() != 0 {
			return fmt.Errorf("bad rank/size %d/%d", c.Rank(), c.Size())
		}
		if got := c.AllReduceSum(3.5); got != 3.5 {
			return fmt.Errorf("AllReduceSum = %v", got)
		}
		c.Barrier()
		g := grid.UnitGrid2D(8, 8, 2)
		f := grid.NewField2D(g)
		paint2D(f, part.ExtentOf(0))
		if err := c.Exchange(2, f); err != nil {
			return err
		}
		dst := grid.NewField2D(g)
		return c.GatherInterior(f, dst)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// freeLoopbackAddr reserves a loopback port and releases it, returning an
// address nothing is listening on.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTCPDialTimeout: dialing a peer that never comes up fails with a
// descriptive timeout error, not a hang.
func TestTCPDialTimeout(t *testing.T) {
	part := grid.MustPartition(8, 8, 2, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewTCP(TCPConfig{
		Rank:        0,
		Peers:       []string{ln.Addr().String(), freeLoopbackAddr(t)},
		Part:        part,
		Listener:    ln,
		DialTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := grid.UnitGrid2D(4, 8, 2) // rank 0's sub-domain
	f := grid.NewField2D(g)
	start := time.Now()
	err = c.Exchange(1, f)
	if err == nil {
		t.Fatal("exchange against a dead peer succeeded")
	}
	if !strings.Contains(err.Error(), "timed out") || !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("want a descriptive dial-timeout error, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("dial timeout took %v, configured 300ms", elapsed)
	}
}

// TestTCPAcceptTimeout: the higher rank waiting for a lower rank that
// never dials fails with a descriptive timeout error, not a hang.
func TestTCPAcceptTimeout(t *testing.T) {
	part := grid.MustPartition(8, 8, 2, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewTCP(TCPConfig{
		Rank:        1,
		Peers:       []string{freeLoopbackAddr(t), ln.Addr().String()},
		Part:        part,
		Listener:    ln,
		DialTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := grid.UnitGrid2D(4, 8, 2)
	f := grid.NewField2D(g)
	err = c.Exchange(1, f)
	if err == nil {
		t.Fatal("exchange with an absent dialer succeeded")
	}
	if !strings.Contains(err.Error(), "waiting for rank 0") {
		t.Errorf("want a descriptive accept-timeout error, got: %v", err)
	}
}

// TestTCPHandshakeGeometryMismatch: two ranks built over different
// partitions refuse each other with a descriptive error on both sides.
func TestTCPHandshakeGeometryMismatch(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{ln0.Addr().String(), ln1.Addr().String()}

	c0, err := NewTCP(TCPConfig{
		Rank: 0, Peers: peers, Part: grid.MustPartition(8, 8, 2, 1),
		Listener: ln0, DialTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := NewTCP(TCPConfig{
		Rank: 1, Peers: peers, Part: grid.MustPartition(16, 16, 2, 1),
		Listener: ln1, DialTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	g := grid.UnitGrid2D(4, 8, 2)
	f := grid.NewField2D(g)
	err = c0.Exchange(1, f)
	if err == nil {
		t.Fatal("exchange across mismatched partitions succeeded")
	}
	if !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("want a partition-mismatch error, got: %v", err)
	}
}

// TestTCPRankCollision: a peer claiming our own rank is rejected at
// handshake time.
func TestTCPRankCollision(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{ln0.Addr().String(), freeLoopbackAddr(t)}
	part := grid.MustPartition(8, 8, 2, 1)

	c0, err := NewTCP(TCPConfig{
		Rank: 0, Peers: peers, Part: part, Listener: ln0, DialTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	// Present a colliding hello to rank 0's listener: a raw client that
	// claims rank 0 itself (a duplicate -rank misconfiguration).
	nc, err := net.Dial("tcp", peers[0])
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	imposter := &TCP{rank: 0, size: 2, peers: peers, part: part}
	if _, err := nc.Write(imposter.handshakeFor().encode(frameHello)); err != nil {
		t.Fatal(err)
	}
	typ, _, _, payload, err := (&frameReader{r: nc}).next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameReject {
		t.Fatalf("imposter hello got %s frame, want reject", frameTypeName(typ))
	}
	if !strings.Contains(string(payload), "rank") {
		t.Errorf("want a descriptive rank-collision reason, got %q", payload)
	}
}

// TestTCPMidExchangeDrop: a peer that dies between collectives surfaces
// as a descriptive error on the survivor, not a hang or corruption.
func TestTCPMidExchangeDrop(t *testing.T) {
	c0, c1 := tcpPair(t)

	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		g := grid.UnitGrid2D(4, 8, 2)
		f := grid.NewField2D(g)
		// First exchange succeeds (and syncs the ranks).
		if err := c0.Exchange(1, f); err != nil {
			errCh <- fmt.Errorf("first exchange: %w", err)
			return
		}
		// Second exchange: the peer is gone; we must get an error.
		errCh <- c0.Exchange(1, f)
	}()
	g := grid.UnitGrid2D(4, 8, 2)
	f := grid.NewField2D(g)
	if err := c1.Exchange(1, f); err != nil {
		t.Fatalf("rank 1 first exchange: %v", err)
	}
	c1.Close() // drop mid-protocol: rank 0's second exchange is in flight
	wg.Wait()
	err := <-errCh
	if err == nil {
		t.Fatal("exchange against a dropped peer succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1") || !(strings.Contains(msg, "shut down") || strings.Contains(msg, "lost")) {
		t.Errorf("want a descriptive connection-drop error, got: %v", err)
	}

	// Sender side. Rank 1's closed socket answered that exchange's slab
	// with a reset, so a further send fails in write(2) itself. It must be
	// reported by that send, naming frame type and peer — not swallowed to
	// resurface as a bare EOF on some later read.
	var sendErr error
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		sendErr = c0.Exchange(1, f)
		if sendErr == nil {
			t.Fatal("exchange against a dropped peer succeeded")
		}
		if strings.Contains(sendErr.Error(), "sending") || time.Now().After(deadline) {
			break
		}
	}
	if !strings.Contains(sendErr.Error(), "comm: tcp rank 0: sending exchange to rank 1: ") {
		t.Errorf("want the failed send reported with frame type and peer, got: %v", sendErr)
	}
	// The recorded failure is part of every later error on the connection.
	if err := c0.Exchange(1, f); err == nil || !strings.Contains(err.Error(), "sending exchange to rank 1") {
		t.Errorf("want later sends to report the recorded send failure, got: %v", err)
	}
	_, recvErr := c0.recvFloats(1, frameExchange, byte(grid.Left), 0, "exchange")
	if recvErr == nil || !strings.Contains(recvErr.Error(), "an earlier send to rank 1 failed") {
		t.Errorf("want the receive error to carry the recorded send failure, got: %v", recvErr)
	}
}

// TestTCPReduceNonPowerOfTwo exercises the fold-in path of the
// recursive-doubling reduction (3 ranks: one fold pair + one butterfly).
func TestTCPReduceNonPowerOfTwo(t *testing.T) {
	part := grid.MustPartition(9, 3, 3, 1)
	sums := make([][]float64, 3)
	err := RunTCP(part, func(c Communicator) error {
		r := float64(c.Rank())
		sums[c.Rank()] = c.AllReduceSumN([]float64{r + 1, 10 * (r + 1)})
		if got := c.AllReduceMax(r); got != 2 {
			return fmt.Errorf("rank %d: AllReduceMax = %v, want 2", c.Rank(), got)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range sums {
		if s[0] != 6 || s[1] != 60 {
			t.Errorf("rank %d: sums = %v, want [6 60]", r, s)
		}
	}
}

// Real-network modes of the tealeaf command.
//
// `-net tcp -rank R -peers host:port,...` runs THIS process as rank R of
// a distributed solve over the comm.TCP backend: every rank is its own
// OS process (possibly on another machine), the peer list is identical on
// every rank, and rank 0 prints the global summary. This is the
// mpirun-style building block.
//
// `-net launch` is the single-machine convenience wrapper: it reserves
// one loopback port per rank, forks this same binary once per rank with
// the matching `-net tcp -rank R -peers ...` flags, and streams rank 0's
// output through. Each rank process moves itself rank CPUs on from the
// CPU it started on (place.Spread), as goroutine ranks do. It exists so
// the full multi-process TCP path can be exercised (and smoke-tested in
// CI) without a cluster.
package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"

	"tealeaf/internal/comm"
	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/output"
	"tealeaf/internal/place"
)

// runTCPRank runs one rank of a real-network solve in this process.
func runTCPRank(d *deck.Deck, nSteps, px, py, pz, workers, rank int, peerList string, quiet, ascii bool, ppm, vtk string) error {
	peers := strings.Split(peerList, ",")
	for i := range peers {
		peers[i] = strings.TrimSpace(peers[i])
		if peers[i] == "" {
			return fmt.Errorf("-peers entry %d is empty", i)
		}
	}
	var part *grid.Partition
	var err error
	if d.Dims == 3 {
		part, err = grid.NewPartition3D(d.XCells, d.YCells, d.ZCells, px, py, pz)
	} else {
		part, err = grid.NewPartition(d.XCells, d.YCells, px, py)
	}
	if err != nil {
		return err
	}
	if ranks := part.Ranks(); len(peers) != ranks {
		return fmt.Errorf("-peers lists %d addresses but -px/-py/-pz describe %d ranks", len(peers), ranks)
	} else if rank < 0 || rank >= ranks {
		return fmt.Errorf("-rank %d outside [0,%d)", rank, ranks)
	}

	// Start rank r r CPUs on from the CPU this process started on, as
	// comm.Run does for goroutine ranks. Under -net launch every rank
	// process starts on the launcher's CPU, and where the host does not
	// balance load the ranks would otherwise share it.
	place.Spread(place.Current(), rank)

	c, err := comm.NewTCP(comm.TCPConfig{Rank: rank, Peers: peers, Part: part})
	if err != nil {
		return err
	}
	defer c.Close()

	if rank == 0 && !quiet {
		printBanner(os.Stdout, d, nSteps, px, py, pz, workers, true)
	}

	// Protect converts a transport failure inside a reduction (which the
	// Communicator contract cannot return) into an ordinary error.
	return c.Protect(func() error {
		if d.Dims == 3 {
			res, err := core.RunRank3D(d, part, c, nSteps, workers)
			if err != nil {
				return err
			}
			if rank == 0 {
				printSummary(res.Summary)
			}
			return nil
		}
		res, err := core.RunRank(d, part, c, nSteps, workers)
		if err != nil {
			return err
		}
		if rank == 0 {
			printSummary(res.Summary)
			if ascii {
				fmt.Print(output.ASCIIHeatmap(res.Energy, 72, 36))
			}
			if ppm != "" {
				if err := writePPM(ppm, res.Energy); err != nil {
					return err
				}
			}
			if vtk != "" {
				return writeVTKEnergy(vtk, res.Energy)
			}
		}
		return nil
	})
}

// runLaunch forks this binary once per rank with `-net tcp` flags over
// freshly reserved loopback ports: the single-machine form of a
// multi-machine run. Rank 0's output streams through; the other ranks'
// output is captured and only shown if that rank fails.
func runLaunch(d *deck.Deck, px, py, pz int) error {
	ranks := px * py
	if d.Dims == 3 {
		ranks *= pz
	}
	peers := make([]string, ranks)
	for r := range peers {
		// Reserve a free port by binding and releasing it; each child
		// re-binds its own entry. The tiny release-to-rebind window is
		// acceptable for a localhost test harness.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("reserving port for rank %d: %w", r, err)
		}
		peers[r] = ln.Addr().String()
		ln.Close()
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	base := stripNetArgs(os.Args[1:])
	cmds := make([]*exec.Cmd, ranks)
	outs := make([]bytes.Buffer, ranks)
	for r := 0; r < ranks; r++ {
		args := append([]string{
			"-net", "tcp",
			"-rank", fmt.Sprint(r),
			"-peers", strings.Join(peers, ","),
		}, base...)
		cmd := exec.Command(exe, args...)
		if r == 0 {
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
		} else {
			cmd.Stdout = &outs[r]
			cmd.Stderr = &outs[r]
		}
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:r] {
				_ = c.Process.Kill()
			}
			return fmt.Errorf("starting rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	var firstErr error
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			if out := outs[r].String(); out != "" {
				fmt.Fprintf(os.Stderr, "--- rank %d output ---\n%s", r, out)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w", r, err)
			}
		}
	}
	return firstErr
}

// stripNetArgs removes any -net/-rank/-peers flags (both `-flag value`
// and `-flag=value` forms, with one or two dashes) so the launcher's own
// net flags can be re-injected per rank without duplication.
func stripNetArgs(args []string) []string {
	isNetFlag := func(name string) bool {
		return name == "net" || name == "rank" || name == "peers"
	}
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, hasValue := strings.TrimLeft(a, "-"), strings.Contains(a, "=")
		if strings.HasPrefix(a, "-") {
			if eq := strings.IndexByte(name, '='); eq >= 0 {
				name = name[:eq]
			}
			if isNetFlag(name) {
				if !hasValue && i+1 < len(args) {
					i++ // skip the separate value token too
				}
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

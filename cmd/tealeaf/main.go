// Command tealeaf runs a TeaLeaf input deck: it solves the linear heat
// conduction equation with the deck's solver and prints per-step solver
// statistics and the final field summary, optionally writing the final
// temperature field as a PPM heatmap or VTK dataset.
//
// Usage:
//
//	tealeaf [flags] [tea.in]
//
// With no deck argument, a built-in crooked-pipe deck (-mesh cells per
// side) is used. -px/-py run the problem decomposed over goroutine ranks,
// exercising the same halo-exchange and reduction paths as an MPI run.
//
// The -net flag selects the communication backend for decomposed runs:
// "hub" (default) keeps every rank a goroutine in this process; "tcp"
// runs this process as ONE rank of a real-network solve (-rank and
// -peers name this rank and every rank's host:port); "launch" forks one
// local -net tcp process per rank over loopback ports — the
// single-machine form of a multi-machine run. See docs/deck-format.md
// for the full flag and deck-key reference.
package main

import (
	"flag"
	"fmt"
	"os"

	"tealeaf/internal/comm"
	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/output"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
	"tealeaf/internal/simd"
	"tealeaf/internal/solver"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tealeaf:", err)
		os.Exit(1)
	}
}

// The command-line flags, registered on flag.CommandLine at init so the
// flag table in docs/deck-format.md can be checked against them.
var (
	mesh    = flag.Int("mesh", 128, "built-in crooked-pipe mesh size (used when no deck file is given)")
	dims    = flag.Int("dims", 0, "override deck dimensionality (3 selects the 7-point solve path; the built-in 3D deck is the two-state benchmark)")
	steps   = flag.Int("steps", 0, "number of time steps to run (0 = deck's end_time/end_step)")
	px      = flag.Int("px", 1, "ranks in x (goroutine ranks)")
	py      = flag.Int("py", 1, "ranks in y")
	pz      = flag.Int("pz", 1, "ranks in z (3D runs only)")
	workers = flag.Int("workers", 1, "worker threads per rank (hybrid mode)")
	solName = flag.String("solver", "", "override deck solver (cg|ppcg|chebyshev|jacobi)")
	depth   = flag.Int("halo-depth", 0, "override PPCG's inner matrix-powers halo depth (tl_ppcg_halo_depth; other solvers take 1 only)")
	stiff   = flag.Bool("stiff", false, "use the built-in stiff near-steady deck (dt=10; the deflation regime) instead of the crooked pipe; honours -dims 3")
	deflate = flag.Bool("deflate", false, "enable subdomain deflation (tl_use_deflation; cg/ppcg, 2D and 3D, single- or multi-rank)")
	deflBlk = flag.Int("deflate-blocks", 0, "override deflation subdomains per direction (tl_deflation_blocks)")
	netMode = flag.String("net", "hub", "comm backend for decomposed runs: hub (goroutine ranks), tcp (this process is one rank; needs -rank/-peers), launch (fork local tcp ranks)")
	rank    = flag.Int("rank", 0, "this process's rank (with -net tcp)")
	peers   = flag.String("peers", "", "comma-separated host:port of every rank, indexed by rank (with -net tcp)")
	ppm     = flag.String("ppm", "", "write final temperature heatmap to this PPM file")
	vtk     = flag.String("vtk", "", "write final fields to this VTK file")
	ascii   = flag.Bool("ascii", false, "print an ASCII heatmap of the final temperature")
	quiet   = flag.Bool("quiet", false, "suppress per-step output")
)

func run() error {
	flag.Parse()

	var d *deck.Deck
	if *stiff && flag.NArg() >= 1 {
		return fmt.Errorf("-stiff selects a built-in deck and cannot be combined with a deck file")
	}
	if flag.NArg() >= 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		d, err = deck.Parse(f)
		if err != nil {
			return err
		}
	} else if *stiff {
		if *dims == 3 {
			d = problem.StiffDeck3D(*mesh)
		} else {
			d = problem.StiffDeck(*mesh)
		}
	} else if *dims == 3 {
		d = problem.BenchmarkDeck3D(*mesh)
	} else {
		d = problem.CrookedPipeDeck(*mesh, *mesh)
	}
	if *dims > 0 {
		d.Dims = *dims
	}
	if *solName != "" {
		// The deck holds the canonical name (ppcg for cppcg, …), which
		// Validate's halo-depth rule compares against.
		kind, err := solver.ParseKind(*solName)
		if err != nil {
			return err
		}
		d.Solver = string(kind)
	}
	if *depth > 0 {
		d.HaloDepth = *depth
	}
	if *deflate {
		d.UseDeflation = true
	}
	if *deflBlk > 0 {
		d.DeflationBlocks = *deflBlk
	}
	// Surface deck errors the overrides can make (deflation blocks against
	// the mesh, a halo depth on a solver other than PPCG) before any rank
	// starts.
	if err := d.Validate(); err != nil {
		return err
	}
	nSteps := *steps
	if nSteps <= 0 {
		nSteps = d.Steps()
	}

	if err := check2DOutputs(d, *ascii, *ppm, *vtk); err != nil {
		return err
	}

	switch *netMode {
	case "hub":
		// Goroutine ranks in this process; handled below.
	case "tcp":
		if *peers == "" {
			return fmt.Errorf("-net tcp needs -peers (every rank's host:port, comma-separated)")
		}
		return runTCPRank(d, nSteps, *px, *py, *pz, *workers, *rank, *peers, *quiet, *ascii, *ppm, *vtk)
	case "launch":
		return runLaunch(d, *px, *py, *pz)
	default:
		return fmt.Errorf("unknown -net backend %q (have: hub, tcp, launch)", *netMode)
	}

	if d.Dims == 3 {
		return run3D(d, nSteps, *px, *py, *pz, *workers, *quiet)
	}

	fmt.Printf("TeaLeaf (Go): %dx%d cells, solver=%s precond=%s%s eps=%.1e dt=%g, %d steps\n",
		d.XCells, d.YCells, d.Solver, orNone(d.Precond), deflNote(d), d.Eps, d.InitialTimestep, nSteps)

	fmt.Printf("decomposition: %dx%d ranks, %d workers/rank, leaves=%s\n", *px, *py, *workers, simd.Leaves())
	if *px**py > 1 {
		res, err := core.RunDistributed(d, *px, *py, nSteps, *workers)
		if err != nil {
			return err
		}
		printSummary(res.Summary)
		if *ascii {
			fmt.Print(output.ASCIIHeatmap(res.Energy, 72, 36))
		}
		if *ppm != "" {
			if err := writePPM(*ppm, res.Energy); err != nil {
				return err
			}
		}
		if *vtk != "" {
			// Distributed runs gather only the energy field; write that
			// rather than silently dropping the flag.
			if err := writeVTKEnergy(*vtk, res.Energy); err != nil {
				return err
			}
		}
		return nil
	}

	inst, err := core.NewSerial(d, par.NewPool(*workers))
	if err != nil {
		return err
	}
	if err := runSerial(inst, inst.Comm, nSteps, *quiet); err != nil {
		return err
	}

	if *ascii {
		fmt.Print(output.ASCIIHeatmap(inst.Energy, 72, 36))
	}
	if *ppm != "" {
		if err := writePPM(*ppm, inst.Energy); err != nil {
			return err
		}
	}
	if *vtk != "" {
		f, err := os.Create(*vtk)
		if err != nil {
			return err
		}
		defer f.Close()
		return output.WriteVTK(f, "tealeaf", map[string]*grid.Field2D{
			"energy": inst.Energy, "density": inst.Density, "u": inst.U,
		})
	}
	return nil
}

// run3D drives a dims=3 deck end-to-end: the 7-point operator, the 3D
// fused solvers, and (with -px/-py/-pz > 1) the distributed 3D rank layer.
func run3D(d *deck.Deck, nSteps, px, py, pz, workers int, quiet bool) error {
	fmt.Printf("TeaLeaf (Go): %dx%dx%d cells (3D), solver=%s precond=%s%s eps=%.1e dt=%g, %d steps\n",
		d.XCells, d.YCells, d.ZCells, d.Solver, orNone(d.Precond), deflNote(d), d.Eps, d.InitialTimestep, nSteps)

	fmt.Printf("decomposition: %dx%dx%d ranks, %d workers/rank, leaves=%s\n", px, py, pz, workers, simd.Leaves())
	if px*py*pz > 1 {
		res, err := core.RunDistributed3D(d, px, py, pz, nSteps, workers)
		if err != nil {
			return err
		}
		printSummary(res.Summary)
		return nil
	}

	inst, err := core.NewSerial3D(d, par.NewPool(workers))
	if err != nil {
		return err
	}
	return runSerial(inst, inst.Comm, nSteps, quiet)
}

// serial is a single-rank instance of either dimension.
type serial interface {
	Step() (solver.Result, error)
	Time() float64
	Summarise() core.Summary
}

// runSerial advances inst nSteps steps, printing each step's solver
// statistics unless quiet, then the summary and c's comm trace.
func runSerial(inst serial, c comm.Communicator, nSteps int, quiet bool) error {
	var totalIters, totalInner int
	for s := 0; s < nSteps; s++ {
		res, err := inst.Step()
		if err != nil {
			return err
		}
		totalIters += res.Iterations
		totalInner += res.TotalInner
		if !quiet {
			fmt.Printf("step %4d  time %8.4f  iters %5d  inner %6d  residual %.3e\n",
				s+1, inst.Time(), res.Iterations, res.TotalInner, res.FinalResidual)
		}
	}
	sum := inst.Summarise()
	sum.TotalIterations = totalIters
	sum.TotalInner = totalInner
	printSummary(sum)
	fmt.Printf("comm trace: %s\n", c.Trace())
	return nil
}

// check2DOutputs rejects the output flags that only have 2D writers on a
// dims=3 deck, naming the flag, rather than silently dropping it.
func check2DOutputs(d *deck.Deck, ascii bool, ppm, vtk string) error {
	if d.Dims != 3 {
		return nil
	}
	for _, f := range []struct {
		name string
		set  bool
	}{{"-ascii", ascii}, {"-ppm", ppm != ""}, {"-vtk", vtk != ""}} {
		if f.set {
			return fmt.Errorf("%s writes 2D fields only and cannot be used with a dims=3 deck", f.name)
		}
	}
	return nil
}

func printSummary(s core.Summary) {
	fmt.Printf("summary: steps=%d time=%.4f volume=%.6g mass=%.6g ie=%.6g avg-temp=%.6g iters=%d inner=%d\n",
		s.Steps, s.SimTime, s.Volume, s.Mass, s.InternalEnergy, s.AvgTemperature,
		s.TotalIterations, s.TotalInner)
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// deflNote renders the deflation configuration for the run banner.
func deflNote(d *deck.Deck) string {
	if !d.UseDeflation {
		return ""
	}
	return fmt.Sprintf(" deflation=%d", d.DeflationBlocks)
}

func writePPM(path string, f *grid.Field2D) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	return output.WritePPM(out, f, 0, 0)
}

// writeVTKEnergy writes a gathered energy field as VTK (the distributed
// paths gather energy only; the serial path also writes density and u).
func writeVTKEnergy(path string, energy *grid.Field2D) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	return output.WriteVTK(out, "tealeaf", map[string]*grid.Field2D{"energy": energy})
}

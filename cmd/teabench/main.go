// Command teabench regenerates the paper's evaluation artefacts: Table I
// and Figures 3–8, plus the ablation studies DESIGN.md calls out. Each
// experiment prints the same rows/series the paper reports; -out writes
// CSV (figures) and PPM (field plots) files as well.
//
// By default experiments run in "quick" mode: real solves on reduced
// meshes calibrate the iteration laws, and the strong-scaling model prices
// the paper's full 4000²×375-step workload from them. -mesh/-steps/-ladder
// change the workload; -full selects the paper's exact sizes for the
// measured parts too (slow).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tealeaf/internal/core"
	"tealeaf/internal/eigen"
	"tealeaf/internal/machine"
	"tealeaf/internal/model"
	"tealeaf/internal/output"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "teabench:", err)
		os.Exit(1)
	}
}

type config struct {
	exp      string
	mesh     int
	steps    int
	ladder   []int
	outDir   string
	full     bool
	inner    int
	fuzzSeed int64
	fuzzN    int
	fuzzOut  string
}

// experiments is the registry -exp selects from. The usage text and the
// unknown-experiment error are built from it, and main_test.go holds
// docs/deck-format.md's flag table to the same names.
var experiments = map[string]func(config) error{
	"table1":    table1,
	"fig3":      fig3,
	"fig4":      fig4,
	"fig5":      scalingFig("fig5"),
	"fig6":      scalingFig("fig6"),
	"fig7":      scalingFig("fig7"),
	"fig8":      scalingFig("fig8"),
	"precond":   precondAblation,
	"halodepth": haloDepthAblation,
	"weak":      weakScaling,
	"smoke":     smokeExperiment,
	"fuzz":      fuzzExperiment,
}

// paperExperiments is what -exp all runs, in the paper's order: its
// table and figures, then the ablations. smoke and fuzz are checks, not
// artefacts, and run only when named.
var paperExperiments = []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "precond", "halodepth", "weak"}

// experimentNames lists every value -exp accepts, sorted, "all" last.
func experimentNames() string {
	names := make([]string, 0, len(experiments)+1)
	for name := range experiments {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(append(names, "all"), "|")
}

// newFlagSet declares teabench's flags over a fresh config.
func newFlagSet() (*flag.FlagSet, *config) {
	fs := flag.NewFlagSet("teabench", flag.ContinueOnError)
	cfg := &config{ladder: []int{32, 48, 64, 96}}
	fs.StringVar(&cfg.exp, "exp", "all", "experiment: "+experimentNames())
	fs.IntVar(&cfg.mesh, "mesh", 192, "measured mesh size for fig3 (quick mode)")
	fs.IntVar(&cfg.steps, "steps", 0, "measured steps for fig3/fig4 (0 = per-experiment default)")
	fs.Func("ladder", "calibration mesh ladder (default 32,48,64,96)", func(s string) error {
		cfg.ladder = nil
		for _, tok := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("bad ladder entry %q", tok)
			}
			cfg.ladder = append(cfg.ladder, n)
		}
		return nil
	})
	fs.StringVar(&cfg.outDir, "out", "", "directory for CSV/PPM outputs (optional)")
	fs.BoolVar(&cfg.full, "full", false, "use the paper's full 4000^2 x 375-step measured workload (very slow)")
	fs.IntVar(&cfg.inner, "inner", 10, "PPCG inner steps")
	fs.Int64Var(&cfg.fuzzSeed, "seed", 1, "deck-generator seed for -exp fuzz")
	fs.IntVar(&cfg.fuzzN, "n", 25, "number of generated decks for -exp fuzz")
	fs.StringVar(&cfg.fuzzOut, "fuzzout", "", "write the -exp fuzz JSON report to this file (default: no file)")
	return fs, cfg
}

func run(args []string) error {
	fs, cfg := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.full {
		cfg.mesh, cfg.steps = 4000, 375
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
	}

	if cfg.exp == "all" {
		for _, name := range paperExperiments {
			if err := experiments[name](*cfg); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	f, ok := experiments[cfg.exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want %s)", cfg.exp, experimentNames())
	}
	return f(*cfg)
}

// ---- Table I ----

func table1(cfg config) error {
	fmt.Println("== Table I: test setup specifications ==")
	fmt.Printf("%-26s", "System")
	for _, m := range machine.All() {
		fmt.Printf(" %-22s", m.Name)
	}
	fmt.Println()
	fmt.Printf("%-26s", "Compute device")
	for _, m := range machine.All() {
		fmt.Printf(" %-22s", m.Device.Name)
	}
	fmt.Println()
	fmt.Printf("%-26s", "Total cores")
	for _, m := range machine.All() {
		fmt.Printf(" %-22d", m.TotalCores())
	}
	fmt.Println()
	fmt.Printf("%-26s", "Interconnect")
	for _, m := range machine.All() {
		fmt.Printf(" %-22s", m.Network.Name)
	}
	fmt.Println()
	fmt.Printf("%-26s", "Driver/compiler versions")
	for _, m := range machine.All() {
		fmt.Printf(" %-22s", m.DriverNote)
	}
	fmt.Println()
	fmt.Println()
	return nil
}

// ---- Fig. 3: crooked pipe temperature field ----

func fig3(cfg config) error {
	steps := cfg.steps
	if steps <= 0 {
		steps = 375 // the paper's full 15 µs
	}
	fmt.Printf("== Fig. 3: crooked pipe %dx%d after %d steps of dt=0.04 ==\n", cfg.mesh, cfg.mesh, steps)
	d := problem.CrookedPipeDeck(cfg.mesh, cfg.mesh)
	d.Eps = 1e-8
	inst, err := core.NewSerial(d, par.NewPool(0))
	if err != nil {
		return err
	}
	for s := 0; s < steps; s++ {
		if _, err := inst.Step(); err != nil {
			return err
		}
	}
	fmt.Print(output.ASCIIHeatmap(inst.Energy, 72, 36))
	lo, hi := inst.Energy.MinMaxInterior()
	fmt.Printf("temperature range: [%.4g, %.4g]; mean %.4g\n\n", lo, hi, inst.Energy.MeanInterior())
	if cfg.outDir != "" {
		f, err := os.Create(filepath.Join(cfg.outDir, "fig3_crooked_pipe.ppm"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := output.WritePPM(f, inst.Energy, 0, 0); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", f.Name())
	}
	return nil
}

// ---- Fig. 4: mesh convergence of average temperature ----

func fig4(cfg config) error {
	fmt.Println("== Fig. 4: average mesh temperature at convergence vs mesh size ==")
	steps := cfg.steps
	if steps <= 0 {
		steps = 60
	}
	// Multiples of 20 rasterise the pipe geometry identically (the pipe
	// edges fall on cell faces), so the series isolates solution
	// convergence from geometry aliasing.
	meshes := []int{40, 60, 80, 120, 160, 200}
	if cfg.full {
		meshes = append(meshes, 400, 1000, 2000, 4000)
	}
	var temps []float64
	fmt.Printf("%-10s %-18s\n", "mesh", "avg temperature")
	for _, n := range meshes {
		d := problem.CrookedPipeDeck(n, n)
		d.Eps = 1e-8
		inst, err := core.NewSerial(d, par.NewPool(0))
		if err != nil {
			return err
		}
		sum, err := inst.Run(steps)
		if err != nil {
			return err
		}
		temps = append(temps, sum.AvgTemperature)
		fmt.Printf("%-10d %-18.8g\n", n, sum.AvgTemperature)
	}
	// Convergence indicator: successive differences must shrink.
	for i := 2; i < len(temps); i++ {
		d1 := abs(temps[i-1] - temps[i-2])
		d2 := abs(temps[i] - temps[i-1])
		if d2 > d1 {
			fmt.Printf("note: |ΔT| grew between %d and %d (coarse-mesh regime)\n", meshes[i-1], meshes[i])
		}
	}
	fmt.Println()
	if cfg.outDir != "" {
		f, err := os.Create(filepath.Join(cfg.outDir, "fig4_mesh_convergence.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return output.WriteCSVSeries(f, "mesh", meshes, []string{"avg_temperature"}, [][]float64{temps})
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ---- Figs 5-8: strong scaling (calibrated model) ----

func calibrated(cfg config) (*model.Calibration, error) {
	fmt.Printf("calibrating iteration laws on ladder %v (%d step(s) each)...\n", cfg.ladder, 2)
	cal, err := model.Calibrate(cfg.ladder, 2, cfg.inner)
	if err != nil {
		return nil, err
	}
	for _, k := range []model.SolverKind{model.CG, model.PPCG, model.BoomerAMG} {
		fmt.Printf("  %s\n", cal.Describe(k))
	}
	return cal, nil
}

func scalingFig(id string) func(config) error {
	return func(cfg config) error {
		cal, err := calibrated(cfg)
		if err != nil {
			return err
		}
		var fig model.Figure
		switch id {
		case "fig5":
			fig = model.Fig5Titan(cal, 0, 0)
		case "fig6":
			fig = model.Fig6PizDaint(cal, 0, 0)
		case "fig7":
			fig = model.Fig7Spruce(cal, 0, 0)
		case "fig8":
			fig = model.Fig8Efficiency(cal, 0, 0)
		}
		printFigure(fig)
		if cfg.outDir != "" {
			if err := writeFigureCSV(cfg.outDir, fig); err != nil {
				return err
			}
		}
		return nil
	}
}

func printFigure(fig model.Figure) {
	fmt.Printf("== %s: %s (4000^2, 375 steps) ==\n", strings.ToUpper(fig.ID), fig.Title)
	fmt.Printf("%-30s", "nodes")
	for _, n := range fig.Series[0].Nodes {
		fmt.Printf(" %8d", n)
	}
	fmt.Println()
	for _, s := range fig.Series {
		fmt.Printf("%-30s", s.Label)
		for _, t := range s.Times {
			fmt.Printf(" %8.2f", t)
		}
		fmt.Println()
	}
	fmt.Println()
}

func writeFigureCSV(dir string, fig model.Figure) error {
	f, err := os.Create(filepath.Join(dir, fig.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	// Long format: series may span different node ranges (Fig. 8 mixes
	// machines with different maximum scales).
	if _, err := fmt.Fprintln(f, "series,nodes,value"); err != nil {
		return err
	}
	for _, s := range fig.Series {
		for i, n := range s.Nodes {
			if _, err := fmt.Fprintf(f, "%s,%d,%.6g\n", s.Label, n, s.Times[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- Ablation: preconditioners (§IV-C1's ~40% condition number claim) ----

func precondAblation(cfg config) error {
	// The preconditioner comparison needs the stiff regime (κ ≫ 1), which
	// the crooked pipe reaches at finer meshes: 480² gives κ ≈ 90, the
	// same order the ladder extrapolates for the paper's production runs.
	n := 480
	fmt.Printf("== Ablation: preconditioners on %dx%d crooked pipe ==\n", n, n)
	fmt.Printf("%-12s %-12s %-14s %-14s %-12s\n", "precond", "iterations", "kappa(M^-1A)", "kappa reduction", "converged")
	var kappaNone float64
	for _, name := range []string{"none", "jac_diag", "jac_block"} {
		d := problem.CrookedPipeDeck(n, n)
		d.Eps = 1e-9
		d.Solver = "cg"
		d.Precond = name
		inst, err := core.NewSerial(d, par.NewPool(0))
		if err != nil {
			return err
		}
		res, err := inst.Step()
		if err != nil {
			return err
		}
		est, err := eigen.EstimateFromCG(res.Alphas, res.Betas)
		if err != nil {
			return err
		}
		kappa := est.RawMax / est.RawMin
		red := "-"
		if name == "none" {
			kappaNone = kappa
		} else {
			red = fmt.Sprintf("%.0f%%", 100*(1-kappa/kappaNone))
		}
		fmt.Printf("%-12s %-12d %-14.1f %-14s %-12v\n", name, res.Iterations, kappa, red, res.Converged)
	}
	fmt.Println()
	return nil
}

// ---- Ablation: matrix-powers halo depth (CPU plateau ~8, GPU ~16) ----

func haloDepthAblation(cfg config) error {
	fmt.Println("== Ablation: matrix-powers halo depth (modelled inner-loop time per outer iteration) ==")
	nodesGPU, nodesCPU := 2048, 512
	fmt.Printf("%-8s %-26s %-26s\n", "depth",
		fmt.Sprintf("Titan K20x @%d nodes (ms)", nodesGPU),
		fmt.Sprintf("Spruce CPU @%d nodes (ms)", nodesCPU))
	w := model.Workload{Mesh: model.FullMesh, Steps: model.FullSteps, ItersPerStep: 100}
	bestGPU, bestCPU := -1, -1
	var minGPU, minCPU float64
	for _, depth := range []int{1, 2, 4, 8, 16} {
		cfgG := model.Config{Kind: model.PPCG, HaloDepth: depth, InnerSteps: cfg.inner, Hybrid: true}
		cfgC := model.Config{Kind: model.PPCG, HaloDepth: depth, InnerSteps: cfg.inner, Hybrid: false}
		bdG := model.StepTime(machine.Titan(), cfgG, w, nodesGPU)
		bdC := model.StepTime(machine.Spruce(), cfgC, w, nodesCPU)
		g, c := bdG.Total()*1e3, bdC.Total()*1e3
		fmt.Printf("%-8d %-26.3f %-26.3f\n", depth, g, c)
		if bestGPU < 0 || g < minGPU {
			bestGPU, minGPU = depth, g
		}
		if bestCPU < 0 || c < minCPU {
			bestCPU, minCPU = depth, c
		}
	}
	fmt.Printf("best depth: GPU=%d, CPU=%d (paper: benefit grows to 16 on GPUs, plateaus ~8 on CPUs)\n\n", bestGPU, bestCPU)
	return nil
}

// ---- Smoke: the CI wiring check ----

// smokeExperiment drives the CLI-reachable solve paths on tiny grids so
// perf-path and wiring bitrot is caught at PR time: a 2D solve, a 3D
// solve with the z-line block-Jacobi, a distributed 2D solve, and one
// deflation run. It is intentionally fast (< a few seconds).
func smokeExperiment(cfg config) error {
	fmt.Println("== smoke: 2D + 3D + deflation wiring ==")
	// 2D serial, PPCG on the benchmark deck.
	d := problem.BenchmarkDeck(16)
	d.Solver = "ppcg"
	inst, err := core.NewSerial(d, par.NewPool(0))
	if err != nil {
		return err
	}
	sum, err := inst.Run(2)
	if err != nil {
		return fmt.Errorf("2D ppcg: %w", err)
	}
	fmt.Printf("2D  ppcg      16^2: iters=%d ie=%.6g\n", sum.TotalIterations, sum.InternalEnergy)

	// 3D serial, CG with the z-line block-Jacobi (the registry's new 3D
	// entry).
	d3 := problem.BenchmarkDeck3D(10)
	d3.Precond = "jac_block"
	inst3, err := core.NewSerial3D(d3, par.NewPool(0))
	if err != nil {
		return err
	}
	sum3, err := inst3.Run(2)
	if err != nil {
		return fmt.Errorf("3D jac_block: %w", err)
	}
	fmt.Printf("3D  jac_block 10^3: iters=%d ie=%.6g\n", sum3.TotalIterations, sum3.InternalEnergy)

	// Distributed 2D (goroutine ranks).
	dd := problem.BenchmarkDeck(16)
	if _, err := core.RunDistributed(dd, 2, 2, 2, 1); err != nil {
		return fmt.Errorf("2D distributed: %w", err)
	}
	fmt.Println("2D  distributed 2x2: ok")

	// Deflation end-to-end on the stiff deck.
	ds := problem.StiffDeck(32)
	ds.UseDeflation = true
	instD, err := core.NewSerial(ds, par.NewPool(0))
	if err != nil {
		return err
	}
	sumD, err := instD.Run(2)
	if err != nil {
		return fmt.Errorf("deflation: %w", err)
	}
	fmt.Printf("2D  deflated  32^2: iters=%d\n", sumD.TotalIterations)

	// Distributed deflation (goroutine ranks): the coarse space spans the
	// global mesh, the projector allreduces through the rank communicator.
	dd2 := problem.StiffDeck(32)
	dd2.UseDeflation = true
	resD, err := core.RunDistributed(dd2, 2, 2, 2, 1)
	if err != nil {
		return fmt.Errorf("distributed deflation: %w", err)
	}
	// Rank invariance allows ±1 iteration per step (reduction ordering
	// differs across rank counts) — the same contract the golden tests pin.
	if di := resD.Summary.TotalIterations - sumD.TotalIterations; di < -2 || di > 2 {
		return fmt.Errorf("distributed deflation iters %d vs serial %d — rank invariance broken",
			resD.Summary.TotalIterations, sumD.TotalIterations)
	}
	fmt.Printf("2D  deflated  2x2 ranks: iters=%d (rank-invariant)\n", resD.Summary.TotalIterations)

	// Temporal-blocked deep-halo chain wiring (tl_temporal): the chained
	// solve must agree with the plain run's physics, serial and on
	// goroutine ranks. Chained↔unchained bit-identity itself is pinned by
	// the solver suite and propcheck; this pins deck → core reachability.
	dt := problem.BenchmarkDeck(32)
	dt.Solver = "cg"
	dt.Tiling = true
	dt.TileY = 4
	dt.HaloDepth = 3
	dt.Temporal = true
	instT, err := core.NewSerial(dt, par.NewPool(0))
	if err != nil {
		return err
	}
	sumT, err := instT.Run(2)
	if err != nil {
		return fmt.Errorf("2D temporal: %w", err)
	}
	fmt.Printf("2D  temporal  32^2 d=3: iters=%d ie=%.6g\n", sumT.TotalIterations, sumT.InternalEnergy)
	dtd := problem.BenchmarkDeck(32)
	dtd.Solver = "cg"
	dtd.Tiling = true
	dtd.TileY = 4
	dtd.HaloDepth = 3
	dtd.Temporal = true
	resT, err := core.RunDistributed(dtd, 2, 2, 2, 1)
	if err != nil {
		return fmt.Errorf("2D distributed temporal: %w", err)
	}
	fmt.Printf("2D  temporal  2x2 ranks: iters=%d\n", resT.Summary.TotalIterations)

	// 3D deflation with the nested two-level hierarchy, distributed.
	ds3 := problem.StiffDeck3D(12)
	ds3.UseDeflation = true
	ds3.DeflationBlocks = 4
	ds3.DeflationLevels = 2
	resD3, err := core.RunDistributed3D(ds3, 2, 2, 1, 1, 1)
	if err != nil {
		return fmt.Errorf("3D distributed deflation: %w", err)
	}
	fmt.Printf("3D  deflated  12^3 levels=2 2x2x1 ranks: iters=%d\n\n", resD3.Summary.TotalIterations)
	return nil
}

// ---- Weak scaling: the sweep the paper omits, quantified ----

func weakScaling(cfg config) error {
	cal, err := calibrated(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Weak scaling (the paper's §VI omission, quantified) ==")
	fmt.Println("fixed 250k cells/node on Piz Daint; iterations grow with the global mesh:")
	nodes := []int{1, 4, 16, 64, 256, 1024}
	fmt.Printf("%-10s %-10s %-14s %-14s %-12s\n", "nodes", "mesh", "iters/step", "time (s)", "efficiency")
	for _, c := range []model.Config{
		{Kind: model.CG, HaloDepth: 1, Hybrid: true},
		{Kind: model.PPCG, HaloDepth: 8, InnerSteps: cfg.inner, Hybrid: true},
	} {
		fmt.Printf("-- %s --\n", c.Label())
		for _, pt := range model.WeakScaling(machine.PizDaint(), c, cal, 250000, model.FullSteps, nodes) {
			fmt.Printf("%-10d %-10d %-14.0f %-14.1f %-12.3f\n",
				pt.Nodes, pt.Mesh, pt.ItersPerStep, pt.Time, pt.Efficiency)
		}
	}
	fmt.Println()
	return nil
}

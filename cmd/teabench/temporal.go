package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"tealeaf/internal/comm"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/machine"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

// The temporal experiment measures what PR 10 buys: temporal-blocked
// deep-halo solve cycles (tl_temporal), where each deep-halo CG
// iteration's grid sweeps run chained band-by-band over LLC-sized bands
// so every band streams through cache once per iteration instead of
// once per sweep. Chained and unchained solves of every engine variant
// run back to back on one operator per mesh, at a fixed iteration
// count, so the rows compare pure cycle cost; bit-identity of the two
// paths is asserted every cell (it is also golden-pinned by the solver
// suite and propcheck). Results land in BENCH_temporal.json.

type temporalBenchRow struct {
	Dims     int     `json:"dims"`
	Mesh     string  `json:"mesh"`
	Impl     string  `json:"impl"` // fused | pipelined | deflated-fused | deflated-pipelined
	Depth    int     `json:"halo_depth"`
	Temporal bool    `json:"temporal"`
	BandRows int     `json:"band_rows"` // chain band height (0 = one spanning band)
	Iters    int     `json:"iters_per_rep"`
	NsPerIt  float64 `json:"ns_per_iter"`
	NsPerCel float64 `json:"ns_per_cell_iter"`
	GBps     float64 `json:"gb_per_s"`
}

type temporalReport struct {
	Generated  string  `json:"generated"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Reps       int     `json:"reps"`
	LLCBytes   float64 `json:"llc_bytes"`

	Notes   []string           `json:"notes"`
	Rows    []temporalBenchRow `json:"solve_cycles"`
	Summary map[string]float64 `json:"summary"`
}

// temporalTraffic is the nominal per-cell-per-iteration field-visit
// traffic the GB/s column is computed from: twelve visits, set when the
// fused deep-halo iteration was three sweeps at four visits each (the
// BENCH_kernels convention) and kept so rows stay comparable with the
// committed file — the two-sweep iteration visits ten fields in its
// merged step and five in its matvec. It is a comparability convention,
// not a claim — the pipelined engine moves slightly more and the
// chained path's whole point is that its real DRAM traffic is far below
// nominal.
const temporalTraffic = 12 * 8

type temporalBenchVariant struct {
	name      string
	pipelined bool
	deflated  bool
}

var temporalBenchVariants = []temporalBenchVariant{
	{"fused", false, false},
	{"pipelined", true, false},
	{"deflated-fused", false, true},
	{"deflated-pipelined", true, true},
}

// temporalCell2D times chained vs unchained deep-halo solves of every
// engine variant on one n² operator and appends the rows.
func temporalCell2D(rep *temporalReport, dev machine.Device, n, depth, iters int) error {
	halo := depth
	if halo < 2 {
		halo = 2
	}
	g := grid.UnitGrid2D(n, n, halo)
	den, rhs := grid.NewField2D(g), grid.NewField2D(g)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			den.Set(j, k, overlapDen(j, k))
			rhs.Set(j, k, overlapRHS(j, k, n))
		}
	}
	den.ReflectHalos(halo)

	// The solver tiling the chain banding is built over, and the band
	// height from the machine model — the same sizing the deck layer
	// computes. fields=8: the chained cycle co-walks p,w,r,u,sd plus the
	// operator's Kx,Ky and the folded diagonal.
	_, tileRows, _ := dev.TileFor(n, n, 0, 8)
	if tileRows == 0 {
		tileRows = 64
	}
	pool := par.Serial.WithTiles(0, tileRows, 0)
	band := dev.ChainBandRows(n, n, 1, 8, depth)

	op, err := stencil.BuildOperator2D(pool, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		return err
	}
	c := comm.NewSerial()
	mesh := fmt.Sprintf("%d^2", n)
	cells := float64(n) * float64(n)

	for _, v := range temporalBenchVariants {
		opts := solver.Options{
			Tol: 1e-300, MaxIters: iters, Comm: c, Pool: pool,
			HaloDepth: depth, Pipelined: v.pipelined,
			Precond:        precond.NewJacobi(pool, op),
			ChainBandCells: band,
		}
		if v.deflated {
			defl, err := deflate.New(par.Serial, c, op,
				deflate.Geometry{GlobalNX: n, GlobalNY: n},
				deflate.Config{BX: 8, BY: 8, Levels: 1})
			if err != nil {
				return err
			}
			opts.Deflation = defl
		}
		u0 := rhs.Clone()
		p := solver.Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		solveOne := func(temporal bool) {
			p.U.CopyFrom(u0)
			opts.Temporal = temporal
			if _, err := solver.SolveCG(p, opts); err != nil {
				panic(err)
			}
		}
		solveOne(false) // warm-up: page faults, operator diagonals
		var sols [2]*grid.Field2D
		for mi, temporal := range []bool{false, true} {
			dur := minTime(rep.Reps, func() { solveOne(temporal) })
			sols[mi] = p.U.Clone()
			recordTemporalRow(rep, 2, mesh, v.name, depth, temporal, band, iters, cells, dur)
		}
		if d := sols[1].MaxDiff(sols[0]); d != 0 {
			return fmt.Errorf("%s %s: chained solve differs from unchained by %v (want bit-identical)", mesh, v.name, d)
		}
	}
	return nil
}

// temporalCell3D is the 128³ twin (chain bands are Z-plane slabs).
func temporalCell3D(rep *temporalReport, dev machine.Device, n, depth, iters int) error {
	halo := depth
	if halo < 2 {
		halo = 2
	}
	g := grid.UnitGrid3D(n, n, n, halo)
	den, rhs := grid.NewField3D(g), grid.NewField3D(g)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				den.Set(i, j, k, 0.5+4*float64((i*37+j*61+k*13)%101)/101)
				r := 0.1
				if i > n/4 && i < n/2 && j > n/4 && j < n/2 && k > n/4 && k < n/2 {
					r = 10
				}
				rhs.Set(i, j, k, r)
			}
		}
	}
	den.ReflectHalos(halo)

	_, _, tz := dev.TileFor(n, n, n, 9)
	if tz == 0 {
		tz = 8
	}
	pool := par.Serial.WithTiles(0, 0, tz)
	band := dev.ChainBandRows(n, n, n, 9, depth)

	op, err := stencil.BuildOperator3D(pool, den, 0.04, stencil.Conductivity, stencil.AllPhysical3D)
	if err != nil {
		return err
	}
	c := comm.NewSerial()
	mesh := fmt.Sprintf("%d^3", n)
	cells := float64(n) * float64(n) * float64(n)

	for _, v := range temporalBenchVariants {
		opts := solver.Options{
			Tol: 1e-300, MaxIters: iters, Comm: c, Pool: pool,
			HaloDepth: depth, Pipelined: v.pipelined,
			Precond3D:      precond.NewJacobi3D(pool, op),
			ChainBandCells: band,
		}
		if v.deflated {
			defl, err := deflate.New3D(par.Serial, c, op,
				deflate.Geometry3D{GlobalNX: n, GlobalNY: n, GlobalNZ: n},
				deflate.Config{BX: 4, BY: 4, BZ: 4, Levels: 1})
			if err != nil {
				return err
			}
			opts.Deflation3D = defl
		}
		u0 := rhs.Clone()
		p := solver.Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
		solveOne := func(temporal bool) {
			p.U.CopyFrom(u0)
			opts.Temporal = temporal
			if _, err := solver.SolveCG3D(p, opts); err != nil {
				panic(err)
			}
		}
		solveOne(false)
		var sols [2]*grid.Field3D
		for mi, temporal := range []bool{false, true} {
			dur := minTime(rep.Reps, func() { solveOne(temporal) })
			sols[mi] = p.U.Clone()
			recordTemporalRow(rep, 3, mesh, v.name, depth, temporal, band, iters, cells, dur)
		}
		if d := sols[1].MaxDiff(sols[0]); d != 0 {
			return fmt.Errorf("%s %s: chained solve differs from unchained by %v (want bit-identical)", mesh, v.name, d)
		}
	}
	return nil
}

func recordTemporalRow(rep *temporalReport, dims int, mesh, impl string, depth int, temporal bool, band, iters int, cells float64, dur time.Duration) {
	perIter := float64(dur.Nanoseconds()) / float64(iters)
	perCell := perIter / cells
	gbps := temporalTraffic * cells * float64(iters) / dur.Seconds() / 1e9
	rep.Rows = append(rep.Rows, temporalBenchRow{
		Dims: dims, Mesh: mesh, Impl: impl, Depth: depth, Temporal: temporal,
		BandRows: band, Iters: iters,
		NsPerIt: perIter, NsPerCel: perCell, GBps: gbps,
	})
	mode := "unchained"
	if temporal {
		mode = "chained  "
	}
	fmt.Printf("%-7s %-19s d=%d %s band=%-5d %12.0f ns/iter  %6.3f ns/cell  %6.2f GB/s\n",
		mesh, impl, depth, mode, band, perIter, perCell, gbps)
}

func temporalExperiment(cfg config) error {
	dev := machine.HostDevice()
	fmt.Printf("== temporal: temporal-blocked deep-halo solve cycles (LLC %.0f MB) ==\n", dev.CacheBytes/(1<<20))
	rep := temporalReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       benchReps,
		LLCBytes:   dev.CacheBytes,
		Notes: []string{
			"temporal=true (tl_temporal): each deep-halo CG iteration's extended-bounds sweeps run chained band-by-band over LLC-sized bands of whole tile rows (band_rows from machine.ChainBandRows; 0 means the working set fits and one spanning band is used), with per-tile dot partials folded in fixed tile order at the end of each chained sweep. temporal=false is the ordinary deep-halo cycle: same sweeps, each streaming the whole mesh.",
			"Every cell runs chained and unchained back to back on ONE operator at a fixed iteration count (Tol=1e-300), single rank, serial tiled pool; the chained solution is asserted bit-identical to the unchained one before the rows are written. min-of-reps wall time per solve.",
			"gb_per_s is effective bandwidth from a NOMINAL 12 field-visits per cell-iteration (a convention from the three-sweep iteration, kept across the merge of its two vector sweeps), identical for every row — it exists to make rows comparable, not as a traffic claim. The chained rows' real DRAM traffic is roughly one band pass per iteration instead of one pass per sweep; nominal GB/s above the untiled DRAM roofline is the temporal win showing up.",
			"The iteration does strictly more arithmetic at depth d > 1 (extended-bounds overlap recompute) and the chain re-walks the band-boundary trapezoids; the win is DRAM traffic, so it appears where the per-iteration working set spills the LLC (2048² and up here) and is absent at LLC-resident meshes (1024² rows are the no-regression check).",
			"Single-core shared VM: achievable bandwidth drifts tens of percent between runs, so compare chained vs unchained within a cell (they share the time slice), not across cells or runs. One core also means no worker-level parallelism: these rows isolate the cache effect; rank/worker scaling of the same chain is covered by the solver suite's bit-identity matrix, not timed here.",
			"drop_recovered_pct_<impl>: how much of the per-cell-iteration falloff from 1024² (LLC-resident ceiling) to 2048² the chain wins back: (unchained_2048 - chained_2048) / (unchained_2048 - unchained_1024), per cell-iteration; drop_recovered_pct_4096_<impl> is the same against the 1024²→4096² falloff. The design target was 50% at 2048² for the fused engine.",
			"READ BEFORE QUOTING drop_recovered: the 2048² recovery divides by the 1024²→2048² falloff, which on this 105 MB-LLC host is only ~2-3 ns/cell-iter — close enough to run-to-run drift that the ratio is unstable across back-to-back idle runs (16% and 53% were both measured for the fused engine; this file carries one such run). The 4096² variant divides by a larger falloff and is steadier. Structurally, bit-identity caps the chain at ONE iteration's sweeps per band residence (3 when these rows were measured, 2 since the vector phase became one sweep) — CG's next α/β need this iteration's global reduction — so the depth-16 chains that recover the apply-bandwidth drop outright in BENCH_tiling.json are unreachable without speculating on scalars (a tolerance-contract follow-up, see ROADMAP). The robust claim is the per-iteration sign, not the ratio: the chained fused cycle is cheaper at every LLC-spilling mesh and exactly free where resident; the big-win regime is a host whose LLC is small relative to the mesh and whose DRAM:LLC bandwidth gap is wider than this shared VM's.",
			"deflated-pipelined chained keeps two tagged reductions in flight across the chained matvec block (the projector's coarse round on its own tag) and costs exactly one extra drained coarse round per solve — trace-pinned in the solver suite; invisible at these scales on serial comm.",
		},
		Summary: map[string]float64{},
	}

	cells2d := []struct{ n, depth, iters int }{
		{1024, 3, 24},
		{2048, 3, 12},
		{4096, 3, 6},
	}
	for _, cell := range cells2d {
		if err := temporalCell2D(&rep, dev, cell.n, cell.depth, cell.iters); err != nil {
			return fmt.Errorf("temporal %d^2: %w", cell.n, err)
		}
	}
	if err := temporalCell3D(&rep, dev, 128, 2, 12); err != nil {
		return fmt.Errorf("temporal 128^3: %w", err)
	}

	perCell := map[string]float64{}
	for _, r := range rep.Rows {
		perCell[fmt.Sprintf("%s/%s/%v", r.Mesh, r.Impl, r.Temporal)] = r.NsPerCel
	}
	for _, v := range temporalBenchVariants {
		ceiling := perCell["1024^2/"+v.name+"/false"]
		u2048 := perCell["2048^2/"+v.name+"/false"]
		c2048 := perCell["2048^2/"+v.name+"/true"]
		if falloff := u2048 - ceiling; falloff > 0 {
			rep.Summary["drop_recovered_pct_"+v.name] = (u2048 - c2048) / falloff * 100
		}
		u4096 := perCell["4096^2/"+v.name+"/false"]
		c4096 := perCell["4096^2/"+v.name+"/true"]
		if falloff := u4096 - ceiling; falloff > 0 {
			rep.Summary["drop_recovered_pct_4096_"+v.name] = (u4096 - c4096) / falloff * 100
		}
		for _, mesh := range []string{"1024^2", "2048^2", "4096^2", "128^3"} {
			un := perCell[mesh+"/"+v.name+"/false"]
			ch := perCell[mesh+"/"+v.name+"/true"]
			if un > 0 {
				rep.Summary[fmt.Sprintf("chained_vs_unchained_%s_%s_pct", mesh, v.name)] = (un - ch) / un * 100
			}
		}
	}

	for k, v := range rep.Summary {
		fmt.Printf("summary %-48s %6.1f%%\n", k, v)
	}

	outPath := cfg.temporalOut
	if outPath == "" {
		outPath = "BENCH_temporal.json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", outPath)
	return nil
}

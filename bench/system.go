package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tealeaf/internal/comm"
	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/output"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/problem"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

// system is one rank's built instance seen through the public functions
// the harness calls, with the field type F and bounds type B abstracted
// so the rep driver and the replays are written once for the repo's 2D
// and 3D twins. setup2D and setup3D fill it; nothing else knows the
// dimensionality.
type system[F, B any] struct {
	cells    int // this rank's interior cells
	interior B
	coefs    int // coefficient arrays the stencil reads per cell (Kx, Ky[, Kz])

	density, energy, u F
	minv               F    // folded preconditioner diagonal; zero value = identity
	folded             bool // minv is set

	newField  func() F
	step      func() (solver.Result, error)
	summarise func() core.Summary
	exchange  func(depth int, fields ...F) error
	energyToU func(density, energy, u F)
	copyField func(dst, src F)

	residual  func(p *par.Pool, b B, u, rhs, r F)
	dot       func(p *par.Pool, b B, x, y F) float64
	matvec    func(p *par.Pool, b B, minv, r, w F) float64
	cgDirs    func(p *par.Pool, b B, minv, r, w F, beta float64, pv, sv F)
	cgUpdate  func(p *par.Pool, b B, alpha float64, pv, sv, x, r, minv F) (float64, float64)
	ppcgInner func(p *par.Pool, b, in B, alpha, beta float64, w, rtemp, minv, sd, z F)

	// The set-up constructors, callable one by one on this rank's grid.
	paint        func() error
	buildOp      func() error
	buildPrecond func() error
	buildDeflate func() error // nil unless the deck deflates (collective)

	// The built projector's two operations (nil unless the deck deflates).
	projectW      func(w F)
	coarseCorrect func(r, u F)

	// writeVTK gathers the energy field and writes it on rank 0,
	// returning the bytes written (nil in 3D: output has no 3D writer).
	writeVTK func(path string) (int64, error)
}

func setup2D(w workload, d *deck.Deck, pool *par.Pool, c comm.Communicator, rec *recorder) (*system[*grid.Field2D, grid.Bounds], error) {
	end := rec.begin("grid.new")
	gg, err := grid.NewGrid2D(d.XCells, d.YCells, core.HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax)
	if err != nil {
		return nil, err
	}
	g := gg
	if c.Size() > 1 {
		part, err := grid.NewPartition(d.XCells, d.YCells, w.Ranks, 1)
		if err != nil {
			return nil, err
		}
		ext := part.ExtentOf(c.Rank())
		if g, err = gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1); err != nil {
			return nil, err
		}
	}
	end()
	end = rec.begin("core.new_instance")
	inst, err := core.NewInstance(d, g, pool, c)
	end()
	if err != nil {
		return nil, err
	}

	coef := coefficientOf(d)
	ph := c.Physical()
	sides := stencil.PhysicalSides{Left: ph.Left, Right: ph.Right, Down: ph.Down, Up: ph.Up}
	minv, _ := precond.FoldableDiag(inst.Options().Precond)
	s := &system[*grid.Field2D, grid.Bounds]{
		cells: g.Cells(), interior: g.Interior(), coefs: 2,
		density: inst.Density, energy: inst.Energy, u: inst.U, minv: minv, folded: minv != nil,
		newField:  func() *grid.Field2D { return grid.NewField2D(g) },
		step:      inst.Step,
		summarise: inst.Summarise,
		exchange:  c.Exchange,
		energyToU: problem.EnergyToU,
		copyField: func(dst, src *grid.Field2D) { dst.CopyFrom(src) },
		residual:  inst.Op.Residual,
		dot:       kernels.Dot,
		matvec:    inst.Op.ApplyPreDot,
		cgDirs:    kernels.FusedCGDirections,
		cgUpdate:  kernels.FusedCGUpdate,
		ppcgInner: kernels.FusedPPCGInner,
		paint: func() error {
			return problem.Paint(d.States, grid.NewField2D(g), grid.NewField2D(g))
		},
		buildOp: func() error {
			_, err := stencil.BuildOperator2D(pool, inst.Density, d.InitialTimestep, coef, sides)
			return err
		},
		buildPrecond: func() error {
			_, err := precond.FromName(d.Precond, pool, inst.Op)
			return err
		},
		writeVTK: func(path string) (int64, error) {
			var global *grid.Field2D
			if c.Rank() == 0 {
				global = grid.NewField2D(gg)
			}
			if err := c.GatherInterior(inst.Energy, global); err != nil || global == nil {
				return 0, err
			}
			return writeVTKFile(path, global)
		},
	}
	if defl, ok := inst.Options().Deflation.(*deflate.Deflation); ok {
		geom := deflate.Geometry{
			GlobalNX: d.XCells, GlobalNY: d.YCells,
			OffsetX: int(math.Round((g.XMin - d.XMin) / g.DX)),
			OffsetY: int(math.Round((g.YMin - d.YMin) / g.DY)),
		}
		s.buildDeflate = func() error {
			_, err := deflate.New(pool, c, inst.Op, geom, deflate.Config{
				BX: d.DeflationBlocks, BY: d.DeflationBlocks, Levels: d.DeflationLevels,
			})
			return err
		}
		s.projectW, s.coarseCorrect = defl.ProjectW, defl.CoarseCorrect
	}
	return s, nil
}

// setup3D builds the single-rank 3D instance: the table has no
// multi-rank and no deflated 3D row, so there is no sub-grid to cut and
// no projector to expose.
func setup3D(d *deck.Deck, pool *par.Pool, c comm.Communicator, rec *recorder) (*system[*grid.Field3D, grid.Bounds3D], error) {
	end := rec.begin("grid.new")
	g, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, core.HaloFor(d),
		d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
	end()
	if err != nil {
		return nil, err
	}
	end = rec.begin("core.new_instance")
	inst, err := core.NewInstance3D(d, g, pool, c)
	end()
	if err != nil {
		return nil, err
	}

	coef := coefficientOf(d)
	ph := c.Physical3D()
	sides := stencil.PhysicalSides3D{Left: ph.Left, Right: ph.Right, Down: ph.Down, Up: ph.Up, Back: ph.Back, Front: ph.Front}
	minv, _ := precond.FoldableDiag3D(inst.Options().Precond3D)
	s := &system[*grid.Field3D, grid.Bounds3D]{
		cells: g.Cells(), interior: g.Interior(), coefs: 3,
		density: inst.Density, energy: inst.Energy, u: inst.U, minv: minv, folded: minv != nil,
		newField:  func() *grid.Field3D { return grid.NewField3D(g) },
		step:      inst.Step,
		summarise: inst.Summarise,
		exchange:  c.Exchange3D,
		energyToU: problem.EnergyToU3D,
		copyField: func(dst, src *grid.Field3D) { dst.CopyFrom(src) },
		residual:  inst.Op.Residual,
		dot:       kernels.Dot3D,
		matvec:    inst.Op.ApplyPreDot,
		cgDirs:    kernels.FusedCGDirections3D,
		cgUpdate:  kernels.FusedCGUpdate3D,
		ppcgInner: kernels.FusedPPCGInner3D,
		paint: func() error {
			return problem.Paint3D(d.States, grid.NewField3D(g), grid.NewField3D(g))
		},
		buildOp: func() error {
			_, err := stencil.BuildOperator3D(pool, inst.Density, d.InitialTimestep, coef, sides)
			return err
		},
		buildPrecond: func() error {
			_, err := precond.FromName3D(d.Precond, pool, inst.Op)
			return err
		},
	}
	return s, nil
}

// coefficientOf maps the deck's coefficient key the way core does.
func coefficientOf(d *deck.Deck) stencil.Coefficient {
	if d.Coefficient == "recip_density" {
		return stencil.RecipConductivity
	}
	return stencil.Conductivity
}

func writeVTKFile(path string, energy *grid.Field2D) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	if err := output.WriteVTK(f, "tealeaf", map[string]*grid.Field2D{"energy": energy}); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// replay measures this rank's layers from outside, on the built
// instance: each set-up constructor once more on its own, and each hot
// sweep called directly on scratch fields of the instance's grid. Every
// rank runs it at the same time, so the sweeps see the contention they
// see in the solve. a and b are two spare fields the caller is done
// with. Collective when the deck deflates.
func (s *system[F, B]) replay(pool *par.Pool, c comm.Communicator, cfg repConfig, a, b F) (map[string]float64, error) {
	calls, builds := 20, 3
	if cfg.Tiny {
		calls, builds = 3, 1
	}
	L := map[string]float64{}

	// Same order on every rank: the deflation build is collective.
	for _, b := range []struct {
		name  string
		build func() error
	}{
		{"problem.paint_s", s.paint}, {"stencil.build_s", s.buildOp},
		{"precond.build_s", s.buildPrecond}, {"deflate.build_s", s.buildDeflate},
	} {
		L[b.name] = 0
		if b.build == nil {
			continue
		}
		var err error
		L[b.name] = medianTime(builds, func() {
			if e := b.build(); e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, err
		}
	}

	// Scratch recurrence vectors, seeded from the solution so the sweeps
	// run on ordinary magnitudes.
	r, w, pv, sv, x := a, b, s.newField(), s.newField(), s.newField()
	for _, f := range []F{r, w, pv, sv} {
		s.copyField(f, s.u)
	}
	in := s.interior
	cells := float64(s.cells)
	folded := 0
	if s.folded {
		folded = 1
	}
	// sweep records a replayed sweep's ns/cell and its computed rate:
	// arrays touched × 8 bytes per cell, cache misses and
	// write-allocates ignored.
	sweep := func(name string, arrays int, seconds float64) {
		ns := seconds * 1e9 / cells
		L[name+"_ns_per_cell"] = ns
		L[name+"_gbs"] = float64(arrays*8) / ns
	}
	// The sweeps are replayed in the order an iteration runs them, each
	// timed on its own, so a sweep finds in cache what its predecessor
	// left there, as in the solve. The step scalars are tiny so the
	// vectors keep ordinary magnitudes however stiff the operator.
	var zero F
	cg := chainTimes(calls,
		func() { s.cgDirs(pool, in, s.minv, r, w, 0.5, pv, sv) },
		func() { s.cgUpdate(pool, in, 1e-9, pv, sv, x, r, s.minv) },
		func() { s.matvec(pool, in, s.minv, r, w) })
	sweep("kernels.cg_dirs", 4+folded, cg[0])
	sweep("kernels.cg_update", 4+folded, cg[1])
	sweep("stencil.matvec", s.coefs+2+folded, cg[2])
	inner := chainTimes(calls,
		func() { s.matvec(pool, in, zero, sv, w) },
		func() { s.ppcgInner(pool, in, in, 0.5, 1e-9, w, r, s.minv, sv, x) })
	sweep("kernels.ppcg_inner", 4+folded, inner[1])

	// par.efficiency: the matvec alone on one thread against this rank's
	// team (1 by definition on a one-worker rank).
	L["par.efficiency"] = 1
	if pool.Workers() > 1 {
		serial := medianTime(calls, func() { s.matvec(par.Serial, in, s.minv, r, w) })
		team := medianTime(calls, func() { s.matvec(pool, in, s.minv, r, w) })
		L["par.efficiency"] = serial / (float64(pool.Workers()) * team)
	}

	L["deflate.project_ns_per_cell"], L["deflate.coarse_correct_s"] = 0, 0
	if s.projectW != nil {
		L["deflate.project_ns_per_cell"] = medianTime(calls, func() { s.projectW(w) }) * 1e9 / cells
		L["deflate.coarse_correct_s"] = medianTime(calls, func() { s.coarseCorrect(r, x) })
	}

	L["output.vtk_s"], L["output.vtk_bytes"] = 0, 0
	if s.writeVTK != nil {
		t := time.Now()
		n, err := s.writeVTK(filepath.Join(cfg.OutDir, "energy.vtk"))
		if err != nil {
			return nil, err
		}
		L["output.vtk_s"], L["output.vtk_bytes"] = time.Since(t).Seconds(), float64(n)
	}
	return L, nil
}

// medianTime calls fn n times after one untimed call and returns the
// median wall seconds of a call.
func medianTime(n int, fn func()) float64 { return chainTimes(n, fn)[0] }

// chainTimes runs fns in order, n times after one untimed round, timing
// each call, and returns each fn's median wall seconds.
func chainTimes(n int, fns ...func()) []float64 {
	ts := make([][]float64, len(fns))
	for round := 0; round <= n; round++ {
		for i, fn := range fns {
			t := time.Now()
			fn()
			if round > 0 {
				ts[i] = append(ts[i], time.Since(t).Seconds())
			}
		}
	}
	out := make([]float64, len(fns))
	for i := range ts {
		out[i] = median(ts[i])
	}
	return out
}

// median of the values (NaN of none).
func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Package core is the TeaLeaf application layer: it turns an input deck
// into fields and an operator, runs the implicit time-step loop (one SPD
// solve per step — the stability-limit-free backward-Euler method of §II),
// and produces the field summaries TeaLeaf reports. The same Instance code
// drives a single-rank run (comm.Serial) and each rank of a distributed
// run (comm.RankComm or comm.TCP); RunDistributed wires the latter
// together over a goroutine-per-rank hub by default, or over real
// loopback TCP sockets with WithBackend(BackendTCP). Multi-machine runs
// use one process per rank (cmd/tealeaf -net tcp) around the same
// NewInstance code.
package core

import (
	"fmt"
	"math"

	"tealeaf/internal/comm"
	"tealeaf/internal/deck"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/machine"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/problem"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

// MinHalo is the smallest grid halo the driver allocates; deep enough for
// classic depth-1 exchanges plus the coefficient build's one-cell reach.
const MinHalo = 2

// Instance is one rank's view of a TeaLeaf run.
type Instance struct {
	Deck *deck.Deck
	Grid *grid.Grid2D
	Pool *par.Pool
	Comm comm.Communicator

	Density *grid.Field2D
	Energy  *grid.Field2D
	U       *grid.Field2D // solve variable u = density·energy
	u0      *grid.Field2D // per-step right-hand side
	Op      *stencil.Operator2D

	kind    solver.Kind
	opts    solver.Options
	stepNum int
	simTime float64
	dt      float64
}

// HaloFor returns the grid halo depth a deck requires: at least MinHalo,
// and at least the matrix-powers exchange depth.
func HaloFor(d *deck.Deck) int {
	h := MinHalo
	if d.HaloDepth > h {
		h = d.HaloDepth
	}
	return h
}

// tiledPool applies the deck's cache-tiling keys to the rank's thread
// team: explicit tl_tile_* edges pin the shape, and with all three at 0
// the shape is auto-tuned from the host's LLC model. The widest fused
// sweeps co-walk about six arrays per cell in 2D and eight in 3D
// (coefficients, recurrence vectors and the folded diagonal), which is
// what the auto-tuner sizes tiles for. Pass nz = 0 for 2D grids.
func tiledPool(d *deck.Deck, pool *par.Pool, nx, ny, nz int) *par.Pool {
	if !d.Tiling {
		return pool
	}
	tx, ty, tz := d.TileX, d.TileY, d.TileZ
	if tx == 0 && ty == 0 && tz == 0 {
		fields := 6
		if nz > 1 {
			fields = 8
		}
		tx, ty, tz = machine.HostDevice().TileFor(nx, ny, nz, fields)
		if tx == 0 && ty == 0 && tz == 0 {
			return pool // the whole sweep is LLC-resident; tiling buys nothing
		}
	}
	return pool.WithTiles(tx, ty, tz)
}

// NewSerial builds a single-rank instance covering the whole deck domain.
func NewSerial(d *deck.Deck, pool *par.Pool) (*Instance, error) {
	g, err := grid.NewGrid2D(d.XCells, d.YCells, HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax)
	if err != nil {
		return nil, err
	}
	return NewInstance(d, g, pool, comm.NewSerial())
}

// NewInstance builds one rank's instance on the given (sub-)grid. The grid
// must carry true physical coordinates (grid.Grid2D.Sub does) so state
// painting and coefficients agree across ranks.
func NewInstance(d *deck.Deck, g *grid.Grid2D, pool *par.Pool, c comm.Communicator) (*Instance, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if pool == nil {
		pool = par.Serial
	}
	pool = tiledPool(d, pool, g.NX, g.NY, 0)
	inst := &Instance{
		Deck: d, Grid: g, Pool: pool, Comm: c,
		dt:      d.InitialTimestep,
		Density: grid.NewField2D(g),
		Energy:  grid.NewField2D(g),
		U:       grid.NewField2D(g),
		u0:      grid.NewField2D(g),
	}
	if err := problem.Paint(d.States, inst.Density, inst.Energy); err != nil {
		return nil, err
	}
	// Coefficients need density halos one cell beyond any bounds the
	// solvers compute on: exchange/reflect to the full allocated depth.
	if err := c.Exchange(g.Halo, inst.Density); err != nil {
		return nil, err
	}

	coef := stencil.Conductivity
	if d.Coefficient == "recip_density" {
		coef = stencil.RecipConductivity
	}
	phys := c.Physical()
	op, err := stencil.BuildOperator2D(pool, inst.Density, d.InitialTimestep, coef,
		stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
	if err != nil {
		return nil, err
	}
	inst.Op = op

	kind, err := solver.ParseKind(d.Solver)
	if err != nil {
		return nil, err
	}
	inst.kind = kind
	m, err := precond.FromName(d.Precond, pool, op)
	if err != nil {
		return nil, err
	}
	inst.opts = solver.Options{
		Tol:          d.Eps,
		MaxIters:     d.MaxIters,
		Pool:         pool,
		Comm:         c,
		Precond:      m,
		EigenCGIters: d.EigenCGIters,
		InnerSteps:   d.InnerSteps,
		HaloDepth:    d.HaloDepth,
		FusedDots:    d.FusedDots,
	}
	if d.UseDeflation {
		// tl_use_deflation: build the distributed coarse subdomain
		// projector over this rank's slice of the solve operator (the
		// coarse partition spans the GLOBAL mesh; the constructor is
		// collective) and compose it into the CG or PPCG solve.
		if kind != solver.KindCG && kind != solver.KindPPCG {
			return nil, fmt.Errorf("core: tl_use_deflation composes with tl_use_cg and tl_use_ppcg only (deck selects %s)", kind)
		}
		defl, err := deflate.New(pool, c, op, deflGeometry(d, g), deflate.Config{
			BX: d.DeflationBlocks, BY: d.DeflationBlocks, Levels: d.DeflationLevels,
		})
		if err != nil {
			return nil, fmt.Errorf("core: tl_use_deflation: %w", err)
		}
		inst.opts.Deflation = defl
	}
	return inst, nil
}

// deflGeometry locates a rank's sub-grid inside the deck's global mesh.
// Sub-grids carry true physical coordinates (grid.Grid2D.Sub), so the
// offset is the vertex distance in cell widths, exact up to rounding.
func deflGeometry(d *deck.Deck, g *grid.Grid2D) deflate.Geometry {
	return deflate.Geometry{
		GlobalNX: d.XCells, GlobalNY: d.YCells,
		OffsetX: int(math.Round((g.XMin - d.XMin) / g.DX)),
		OffsetY: int(math.Round((g.YMin - d.YMin) / g.DY)),
	}
}

// Options exposes the derived solver options (for harnesses that tweak
// them between steps).
func (inst *Instance) Options() *solver.Options { return &inst.opts }

// Kind returns the solver algorithm the deck selected.
func (inst *Instance) Kind() solver.Kind { return inst.kind }

// Step advances one implicit time step: u⁰ = ρ·e, solve A·u = u⁰, then
// e = u/ρ. Returns the solver result for the step.
func (inst *Instance) Step() (solver.Result, error) {
	problem.EnergyToU(inst.Density, inst.Energy, inst.u0)
	inst.U.CopyFrom(inst.u0) // initial guess: previous energy density
	res, err := solver.Solve(inst.kind, solver.Problem{Op: inst.Op, U: inst.U, RHS: inst.u0}, inst.opts)
	if err != nil {
		return res, fmt.Errorf("core: step %d: %w", inst.stepNum+1, err)
	}
	if !res.Converged {
		return res, fmt.Errorf("core: step %d: solver did not converge (residual %.3e after %d iterations)",
			inst.stepNum+1, res.FinalResidual, res.Iterations)
	}
	problem.UToEnergy(inst.Density, inst.U, inst.Energy)
	inst.stepNum++
	inst.simTime += inst.dt
	return res, nil
}

// SetTimestep changes the implicit time-step size for subsequent Steps.
// The solve operator A = I + dt·div(k·grad) depends on dt, so a changed
// dt rebuilds the operator and preconditioner and re-assembles the
// deflation projector's coarse matrix E = WᵀAW (one reduction round).
// An unchanged dt is a no-op: the operator, factorization and cached E
// all carry over with zero computation and zero communication — which
// is why harnesses stepping at constant dt pay the coarse assembly
// exactly once. Collective when the dt actually changes and deflation
// is configured.
func (inst *Instance) SetTimestep(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("core: SetTimestep requires dt > 0, got %g", dt)
	}
	if dt == inst.dt {
		return nil
	}
	d := inst.Deck
	coef := stencil.Conductivity
	if d.Coefficient == "recip_density" {
		coef = stencil.RecipConductivity
	}
	phys := inst.Comm.Physical()
	op, err := stencil.BuildOperator2D(inst.Pool, inst.Density, dt, coef,
		stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
	if err != nil {
		return fmt.Errorf("core: SetTimestep: %w", err)
	}
	m, err := precond.FromName(d.Precond, inst.Pool, op)
	if err != nil {
		return fmt.Errorf("core: SetTimestep: %w", err)
	}
	if defl, ok := inst.opts.Deflation.(*deflate.Deflation); ok && defl != nil {
		if err := defl.Refresh(op, true); err != nil {
			return fmt.Errorf("core: SetTimestep: %w", err)
		}
	}
	inst.Op = op
	inst.opts.Precond = m
	inst.dt = dt
	return nil
}

// StepCount returns the number of completed steps.
func (inst *Instance) StepCount() int { return inst.stepNum }

// Time returns the simulated time.
func (inst *Instance) Time() float64 { return inst.simTime }

// Summary is TeaLeaf's field summary, globally reduced.
type Summary struct {
	Volume         float64
	Mass           float64
	InternalEnergy float64
	// AvgTemperature is the mesh-average specific energy (temperature at
	// unit heat capacity) — the quantity Fig. 4 tracks against mesh size.
	AvgTemperature float64
	Steps          int
	SimTime        float64
	// TotalIterations and TotalInner accumulate across Run.
	TotalIterations int
	TotalInner      int
}

// Summarise computes the global field summary (collective: every rank
// must call it).
func (inst *Instance) Summarise() Summary {
	g := inst.Grid
	cellVol := g.CellArea()
	vol := cellVol * float64(g.Cells())
	var mass, ie, temp float64
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			mass += inst.Density.At(j, k) * cellVol
			ie += inst.Density.At(j, k) * inst.Energy.At(j, k) * cellVol
			// Temperature is the specific energy (unit heat capacity);
			// unlike ρ·e, its mesh average is NOT conserved by diffusion
			// through variable-density material, which is what makes the
			// Fig. 4 convergence study meaningful.
			temp += inst.Energy.At(j, k) * cellVol
		}
	}
	gvol := inst.Comm.AllReduceSum(vol)
	gmass, gie := inst.Comm.AllReduceSum2(mass, ie)
	gtemp := inst.Comm.AllReduceSum(temp)
	return Summary{
		Volume:         gvol,
		Mass:           gmass,
		InternalEnergy: gie,
		AvgTemperature: gtemp / gvol,
		Steps:          inst.stepNum,
		SimTime:        inst.simTime,
	}
}

// Run advances the given number of steps (or the deck's own step count if
// steps <= 0) and returns the final summary.
func (inst *Instance) Run(steps int) (Summary, error) {
	if steps <= 0 {
		steps = inst.Deck.Steps()
	}
	var totalIters, totalInner int
	for s := 0; s < steps; s++ {
		res, err := inst.Step()
		if err != nil {
			return Summary{}, err
		}
		totalIters += res.Iterations
		totalInner += res.TotalInner
	}
	sum := inst.Summarise()
	sum.TotalIterations = totalIters
	sum.TotalInner = totalInner
	return sum, nil
}

// DistResult is what RunDistributed hands back: the gathered global
// energy field and the global summary.
type DistResult struct {
	Energy  *grid.Field2D
	Summary Summary
}

// Backend names a multi-rank communication fabric RunDistributed can run
// over. Both backends drive the identical rank code — the selector only
// changes what carries the halo slabs and reduction scalars.
type Backend string

// The registered comm backends.
const (
	// BackendHub is the in-process reference: ranks are goroutines,
	// messages travel over channels (comm.Hub).
	BackendHub Backend = "hub"
	// BackendTCP runs every rank over real loopback TCP sockets speaking
	// the comm.TCP wire protocol — the single-machine configuration of
	// the real-network backend, used for testing and as the template for
	// multi-machine runs (where each rank is its own process; see
	// cmd/tealeaf -net tcp).
	BackendTCP Backend = "tcp"
)

// DistOption tweaks a RunDistributed / RunDistributed3D call.
type DistOption func(*distConfig)

type distConfig struct {
	backend Backend
}

// WithBackend selects the communication fabric (default BackendHub).
func WithBackend(b Backend) DistOption {
	return func(c *distConfig) { c.backend = b }
}

func applyDistOptions(opts []DistOption) distConfig {
	cfg := distConfig{backend: BackendHub}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// RunRank executes one rank of a distributed 2D run: the communicator
// must span the given partition (its Rank selects the sub-domain). On
// rank 0 the returned DistResult carries the gathered global energy
// field; on other ranks Energy is nil. The Summary is globally reduced
// and valid on every rank. This is the per-process entry point of a
// real-network run (cmd/tealeaf -net tcp); RunDistributed drives the same
// code with one goroutine per rank.
func RunRank(d *deck.Deck, part *grid.Partition, c comm.Communicator, steps, workersPerRank int) (*DistResult, error) {
	if part.NX != d.XCells || part.NY != d.YCells {
		return nil, fmt.Errorf("core: partition %dx%d does not match the deck's %dx%d cells",
			part.NX, part.NY, d.XCells, d.YCells)
	}
	gg, err := grid.NewGrid2D(d.XCells, d.YCells, HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax)
	if err != nil {
		return nil, err
	}
	ext := part.ExtentOf(c.Rank())
	sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
	if err != nil {
		return nil, err
	}
	pool := par.Serial
	if workersPerRank > 1 {
		pool = par.NewPool(workersPerRank)
	}
	inst, err := NewInstance(d, sub, pool, c)
	if err != nil {
		return nil, err
	}
	sum, err := inst.Run(steps)
	if err != nil {
		return nil, err
	}
	out := &DistResult{Summary: sum}
	if c.Rank() == 0 {
		out.Energy = grid.NewField2D(gg)
	}
	if err := c.GatherInterior(inst.Energy, out.Energy); err != nil {
		return nil, err
	}
	return out, nil
}

// RunDistributed runs the deck for the given number of steps on a px×py
// rank decomposition and gathers the final energy field. workersPerRank
// sizes each rank's thread team (the hybrid MPI+OpenMP configuration of
// §IV-A); 1 reproduces flat MPI. By default ranks are goroutines wired
// through a comm.Hub; WithBackend(BackendTCP) runs the same rank code
// over real loopback TCP sockets instead.
func RunDistributed(d *deck.Deck, px, py, steps, workersPerRank int, opts ...DistOption) (*DistResult, error) {
	cfg := applyDistOptions(opts)
	part, err := grid.NewPartition(d.XCells, d.YCells, px, py)
	if err != nil {
		return nil, err
	}
	out := &DistResult{}
	rank := func(c comm.Communicator) error {
		res, err := RunRank(d, part, c, steps, workersPerRank)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			*out = *res
		}
		return nil
	}
	switch cfg.backend {
	case BackendTCP:
		err = comm.RunTCP(part, rank)
	case BackendHub:
		err = comm.Run(part, func(c *comm.RankComm) error { return rank(c) })
	default:
		// An unknown backend must not silently run as a hub: callers
		// comparing backends would then compare hub against hub.
		err = fmt.Errorf("core: unknown comm backend %q (have: hub, tcp)", cfg.backend)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

package core

import (
	"fmt"
	"math"

	"tealeaf/internal/comm"
	"tealeaf/internal/deck"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/problem"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

// Instance3D is one rank's view of a 3D TeaLeaf run (deck Dims == 3): the
// same deck → operator → solve → energy-update cycle as Instance, on the
// 7-point operator. The same code drives a single-rank run (comm.Serial)
// and each rank of a distributed run over a grid.Partition3D.
type Instance3D struct {
	Deck *deck.Deck
	Grid *grid.Grid3D
	Pool *par.Pool
	Comm comm.Communicator

	Density *grid.Field3D
	Energy  *grid.Field3D
	U       *grid.Field3D // solve variable u = density·energy
	u0      *grid.Field3D // per-step right-hand side
	Op      *stencil.Operator3D

	kind    solver.Kind
	opts    solver.Options
	stepNum int
	simTime float64
	dt      float64
}

// NewSerial3D builds a single-rank 3D instance covering the whole deck
// domain.
func NewSerial3D(d *deck.Deck, pool *par.Pool) (*Instance3D, error) {
	g, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, HaloFor(d),
		d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
	if err != nil {
		return nil, err
	}
	return NewInstance3D(d, g, pool, comm.NewSerial())
}

// NewInstance3D builds one rank's 3D instance on the given (sub-)grid.
// The grid must carry true physical coordinates (grid.Grid3D.Sub does) so
// state painting and coefficients agree across ranks.
func NewInstance3D(d *deck.Deck, g *grid.Grid3D, pool *par.Pool, c comm.Communicator) (*Instance3D, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Dims != 3 {
		return nil, fmt.Errorf("core: 3D instance needs a dims=3 deck, got dims=%d", d.Dims)
	}
	if pool == nil {
		pool = par.Serial
	}
	inst := &Instance3D{
		Deck: d, Grid: g, Pool: pool, Comm: c,
		dt:      d.InitialTimestep,
		Density: grid.NewField3D(g),
		Energy:  grid.NewField3D(g),
		U:       grid.NewField3D(g),
		u0:      grid.NewField3D(g),
	}
	if err := problem.Paint3D(d.States, inst.Density, inst.Energy); err != nil {
		return nil, err
	}
	// Coefficients need density halos one cell beyond any bounds the
	// solvers compute on: exchange/reflect to the full allocated depth.
	if err := c.Exchange3D(g.Halo, inst.Density); err != nil {
		return nil, err
	}

	coef := stencil.Conductivity
	if d.Coefficient == "recip_density" {
		coef = stencil.RecipConductivity
	}
	phys := c.Physical3D()
	op, err := stencil.BuildOperator3D(pool, inst.Density, d.InitialTimestep, coef,
		stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
			Up: phys.Up, Back: phys.Back, Front: phys.Front})
	if err != nil {
		return nil, err
	}
	inst.Op = op

	kind, err := solver.ParseKind(d.Solver)
	if err != nil {
		return nil, err
	}
	inst.kind = kind
	m, err := precond.FromName3D(d.Precond, pool, op)
	if err != nil {
		return nil, err
	}
	inst.opts = solver.Options{
		Tol:          d.Eps,
		MaxIters:     d.MaxIters,
		Pool:         pool,
		Comm:         c,
		Precond3D:    m,
		EigenCGIters: d.EigenCGIters,
		InnerSteps:   d.InnerSteps,
		HaloDepth:    d.HaloDepth,
	}
	if d.UseDeflation {
		// tl_use_deflation on a dims=3 deck: the 3D coarse-space projector
		// over the global box partition, composed into CG or PPCG exactly
		// as in 2D. Collective across the ranks of a distributed run.
		if kind != solver.KindCG && kind != solver.KindPPCG {
			return nil, fmt.Errorf("core: tl_use_deflation composes with tl_use_cg and tl_use_ppcg only (deck selects %s)", kind)
		}
		defl, err := deflate.New3D(pool, c, op, deflGeometry3D(d, g), deflate.Config{
			BX: d.DeflationBlocks, BY: d.DeflationBlocks, BZ: d.DeflationBlocks,
			Levels: d.DeflationLevels,
		})
		if err != nil {
			return nil, fmt.Errorf("core: tl_use_deflation: %w", err)
		}
		inst.opts.Deflation3D = defl
	}
	return inst, nil
}

// deflGeometry3D locates a rank's sub-grid inside the deck's global 3D
// mesh — the box twin of deflGeometry.
func deflGeometry3D(d *deck.Deck, g *grid.Grid3D) deflate.Geometry3D {
	return deflate.Geometry3D{
		GlobalNX: d.XCells, GlobalNY: d.YCells, GlobalNZ: d.ZCells,
		OffsetX: int(math.Round((g.XMin - d.XMin) / g.DX)),
		OffsetY: int(math.Round((g.YMin - d.YMin) / g.DY)),
		OffsetZ: int(math.Round((g.ZMin - d.ZMin) / g.DZ)),
	}
}

// Options exposes the derived solver options.
func (inst *Instance3D) Options() *solver.Options { return &inst.opts }

// Kind returns the solver algorithm the deck selected.
func (inst *Instance3D) Kind() solver.Kind { return inst.kind }

// Step advances one implicit time step: u⁰ = ρ·e, solve A·u = u⁰, then
// e = u/ρ. Returns the solver result for the step.
func (inst *Instance3D) Step() (solver.Result, error) {
	problem.EnergyToU3D(inst.Density, inst.Energy, inst.u0)
	inst.U.CopyFrom(inst.u0) // initial guess: previous energy density
	res, err := solver.Solve3D(inst.kind, solver.Problem3D{Op: inst.Op, U: inst.U, RHS: inst.u0}, inst.opts)
	if err != nil {
		return res, fmt.Errorf("core: step %d: %w", inst.stepNum+1, err)
	}
	if !res.Converged {
		return res, fmt.Errorf("core: step %d: solver did not converge (residual %.3e after %d iterations)",
			inst.stepNum+1, res.FinalResidual, res.Iterations)
	}
	problem.UToEnergy3D(inst.Density, inst.U, inst.Energy)
	inst.stepNum++
	inst.simTime += inst.dt
	return res, nil
}

// SetTimestep changes the implicit time-step size for subsequent Steps —
// the 3D twin of Instance.SetTimestep. An unchanged dt is a free no-op
// (the cached deflation coarse matrix carries over); a changed dt
// rebuilds the operator and preconditioner and re-assembles E = WᵀAW.
// Collective when the dt actually changes and deflation is configured.
func (inst *Instance3D) SetTimestep(dt float64) error {
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
	phys := inst.Comm.Physical3D()
	op, err := stencil.BuildOperator3D(inst.Pool, inst.Density, dt, coef,
		stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
			Up: phys.Up, Back: phys.Back, Front: phys.Front})
	if err != nil {
		return fmt.Errorf("core: SetTimestep: %w", err)
	}
	m, err := precond.FromName3D(d.Precond, inst.Pool, op)
	if err != nil {
		return fmt.Errorf("core: SetTimestep: %w", err)
	}
	if defl, ok := inst.opts.Deflation3D.(*deflate.Deflation3D); ok && defl != nil {
		if err := defl.Refresh(op, true); err != nil {
			return fmt.Errorf("core: SetTimestep: %w", err)
		}
	}
	inst.Op = op
	inst.opts.Precond3D = m
	inst.dt = dt
	return nil
}

// StepCount returns the number of completed steps.
func (inst *Instance3D) StepCount() int { return inst.stepNum }

// Time returns the simulated time.
func (inst *Instance3D) Time() float64 { return inst.simTime }

// Summarise computes the global field summary (collective: every rank
// must call it).
func (inst *Instance3D) Summarise() Summary {
	g := inst.Grid
	cellVol := g.CellVolume()
	vol := cellVol * float64(g.Cells())
	var mass, ie, temp float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				mass += inst.Density.At(i, j, k) * cellVol
				ie += inst.Density.At(i, j, k) * inst.Energy.At(i, j, k) * cellVol
				temp += inst.Energy.At(i, j, k) * cellVol
			}
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
func (inst *Instance3D) Run(steps int) (Summary, error) {
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

// DistResult3D is what RunDistributed3D hands back: the gathered global
// energy field and the global summary.
type DistResult3D struct {
	Energy  *grid.Field3D
	Summary Summary
}

// RunDistributed3D runs a dims=3 deck for the given number of steps on a
// px×py×pz rank decomposition and gathers the final energy field.
// workersPerRank sizes each rank's thread team; 1 reproduces flat MPI.
// By default ranks are goroutines wired through a comm.Hub;
// WithBackend(BackendTCP) runs the same rank code over real loopback TCP
// sockets instead.
func RunDistributed3D(d *deck.Deck, px, py, pz, steps, workersPerRank int, opts ...DistOption) (*DistResult3D, error) {
	cfg := applyDistOptions(opts)
	part, err := grid.NewPartition3D(d.XCells, d.YCells, d.ZCells, px, py, pz)
	if err != nil {
		return nil, err
	}
	out := &DistResult3D{}
	rank := func(c comm.Communicator) error {
		res, err := RunRank3D(d, part, c, steps, workersPerRank)
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
		err = comm.RunTCP3D(part, rank)
	case BackendHub:
		err = comm.Run3D(part, func(c *comm.RankComm) error { return rank(c) })
	default:
		err = fmt.Errorf("core: unknown comm backend %q (have: hub, tcp)", cfg.backend)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunRank3D executes one rank of a distributed 3D run — the 3D twin of
// RunRank, and the per-process entry point of a real-network dims=3 run.
// On rank 0 the returned DistResult3D carries the gathered global energy
// field; the Summary is globally reduced and valid on every rank.
func RunRank3D(d *deck.Deck, part *grid.Partition3D, c comm.Communicator, steps, workersPerRank int) (*DistResult3D, error) {
	if part.NX != d.XCells || part.NY != d.YCells || part.NZ != d.ZCells {
		return nil, fmt.Errorf("core: partition %dx%dx%d does not match the deck's %dx%dx%d cells",
			part.NX, part.NY, part.NZ, d.XCells, d.YCells, d.ZCells)
	}
	gg, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, HaloFor(d),
		d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
	if err != nil {
		return nil, err
	}
	ext := part.ExtentOf(c.Rank())
	sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1, ext.Z0, ext.Z1)
	if err != nil {
		return nil, err
	}
	pool := par.Serial
	if workersPerRank > 1 {
		pool = par.NewPool(workersPerRank)
	}
	inst, err := NewInstance3D(d, sub, pool, c)
	if err != nil {
		return nil, err
	}
	sum, err := inst.Run(steps)
	if err != nil {
		return nil, err
	}
	out := &DistResult3D{Summary: sum}
	if c.Rank() == 0 {
		out.Energy = grid.NewField3D(gg)
	}
	if err := c.GatherInterior3D(inst.Energy, out.Energy); err != nil {
		return nil, err
	}
	return out, nil
}

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
//
// Instance (2D) and Instance3D keep their typed fields around one
// embedded instance, which holds the lifecycle written once: deck
// validation, set-up, Step, SetTimestep, Run and Summarise. Each typed
// half supplies only what its dimension decides (the fields interface):
// its fields, operator, preconditioner and deflation projector.
//
// Every grid-sized field an instance holds — its state fields, the face
// coefficients, the preconditioner's field and the solver workspace's —
// is carved from one grid.Arena, sized at set-up for the deck's solver
// kind and preconditioner (see the slot constants).
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

// MinHalo is the smallest grid halo the driver allocates; deep enough for
// classic depth-1 exchanges plus the coefficient build's one-cell reach.
const MinHalo = 2

// instance is the half of an Instance or Instance3D that does not depend
// on the dimension: the deck, pool and communicator, the solver's kind,
// options and workspace, the step clock, and the typed half's hooks. The
// lifecycle — validation, set-up, Step, SetTimestep, Run and Summarise —
// is written once here, over those hooks.
type instance struct {
	Deck *deck.Deck
	Pool *par.Pool
	Comm comm.Communicator

	fields fields
	kind   solver.Kind
	opts   solver.Options
	// arena holds every grid-sized field of the instance, one per slot;
	// dims and spec locate its coefficient, preconditioner and
	// workspace slots.
	arena *grid.Arena
	dims  int
	spec  precond.Spec
	// ws holds the solver's work fields from step to step: the first
	// Step takes them from the arena, every later one clears and reuses
	// them.
	ws      solver.Workspace
	stepNum int
	simTime float64
	dt      float64
}

// fields is what an instance's typed half does at each stage of the
// lifecycle; *Instance and *Instance3D implement it over their fields.
type fields interface {
	// paint allocates the fields, paints the deck's states and exchanges
	// density to the full halo depth.
	paint() error
	// operator builds the operator and preconditioner for time step dt,
	// refreshes a configured deflation projector to it, and installs both.
	operator(dt float64) error
	// deflation builds the deflation projector over the installed operator.
	deflation() error
	// solve sets u⁰ = ρ·e, starts u at u⁰ and solves A·u = u⁰.
	solve() (solver.Result, error)
	// energy recovers e = u/ρ after a converged solve.
	energy()
	// interior returns the interior as rows, the density and energy
	// storage, and the volume (area in 2D) of one cell.
	interior() (w grid.Rows, density, energy []float64, cellVol float64)
}

// An instance's arena slots: the state fields, then the face
// coefficients Kx, Ky (and Kz in 3D) from slotKx on, then the
// preconditioner's field when it holds one (precond.Spec.Field), then the
// workspace's fields (solver.WorkspaceFields). A Δt change rebuilds the
// coefficients and the preconditioner's field into their own slots, so
// SetTimestep never grows the instance.
const (
	slotDensity = iota
	slotEnergy
	slotU
	slotU0
	slotKx
)

// Instance is one rank's view of a TeaLeaf run.
type Instance struct {
	instance
	Grid    *grid.Grid2D
	Density *grid.Field2D
	Energy  *grid.Field2D
	U       *grid.Field2D // solve variable u = density·energy
	u0      *grid.Field2D // per-step right-hand side
	Op      *stencil.Operator2D
}

// Instance3D is one rank's view of a 3D TeaLeaf run (deck Dims == 3): the
// same deck → operator → solve → energy-update cycle as Instance, on the
// 7-point operator.
type Instance3D struct {
	instance
	Grid    *grid.Grid3D
	Density *grid.Field3D
	Energy  *grid.Field3D
	U       *grid.Field3D // solve variable u = density·energy
	u0      *grid.Field3D // per-step right-hand side
	Op      *stencil.Operator3D
}

// HaloFor returns the grid halo depth a deck requires: at least MinHalo,
// and at least the matrix-powers exchange depth.
func HaloFor(d *deck.Deck) int { return max(MinHalo, d.HaloDepth) }

// NewSerial builds a single-rank instance covering the whole deck domain.
func NewSerial(d *deck.Deck, pool *par.Pool) (*Instance, error) {
	g, err := grid.NewGrid2D(d.XCells, d.YCells, HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax)
	if err != nil {
		return nil, err
	}
	return NewInstance(d, g, pool, comm.NewSerial())
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

// NewInstance builds one rank's instance on the given (sub-)grid. The grid
// must carry true physical coordinates (grid.Grid2D.Sub does) so state
// painting and coefficients agree across ranks.
func NewInstance(d *deck.Deck, g *grid.Grid2D, pool *par.Pool, c comm.Communicator) (*Instance, error) {
	inst := &Instance{Grid: g}
	if err := inst.start(d, pool, c, inst, 2, g.Len()); err != nil {
		return nil, err
	}
	return inst, nil
}

// NewInstance3D builds one rank's 3D instance on the given (sub-)grid,
// which must carry true physical coordinates (grid.Grid3D.Sub does).
func NewInstance3D(d *deck.Deck, g *grid.Grid3D, pool *par.Pool, c comm.Communicator) (*Instance3D, error) {
	inst := &Instance3D{Grid: g}
	if err := inst.start(d, pool, c, inst, 3, g.Len()); err != nil {
		return nil, err
	}
	return inst, nil
}

// start validates the deck and sets the instance up through f: the arena
// for fields of n cells, the painted fields, the operator and
// preconditioner at the deck's time step, and — with tl_use_deflation —
// the distributed coarse subdomain projector over this rank's slice of
// the operator (the coarse partition spans the GLOBAL mesh; its
// constructor is collective), composed into the CG or PPCG solve.
func (r *instance) start(d *deck.Deck, pool *par.Pool, c comm.Communicator, f fields, dims, n int) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if dims == 3 && d.Dims != 3 {
		return fmt.Errorf("core: 3D instance needs a dims=3 deck, got dims=%d", d.Dims)
	}
	kind, err := solver.ParseKind(d.Solver)
	if err != nil {
		return err
	}
	if pool == nil {
		pool = par.Serial
	}
	// An unknown preconditioner sizes the arena as the identity and fails
	// in operator, with the registry's error.
	spec, _ := precond.Lookup(d.Precond)
	r.Deck, r.Pool, r.Comm, r.fields, r.kind = d, pool, c, f, kind
	r.dims, r.spec = dims, spec
	first := r.precondSlot()
	if spec.Field {
		first++
	}
	r.arena = grid.NewArena(n, first+solver.WorkspaceFields(kind, spec))
	r.ws = solver.NewWorkspace(r.arena, first, kind, spec)
	r.opts = solver.Options{
		Tol:          d.Eps,
		MaxIters:     d.MaxIters,
		Pool:         pool,
		Comm:         c,
		EigenCGIters: d.EigenCGIters,
		InnerSteps:   d.InnerSteps,
		HaloDepth:    d.HaloDepth,
	}
	if err := f.paint(); err != nil {
		return err
	}
	if err := f.operator(d.InitialTimestep); err != nil {
		return err
	}
	r.dt = d.InitialTimestep
	if d.UseDeflation {
		if kind != solver.KindCG && kind != solver.KindPPCG {
			return fmt.Errorf("core: tl_use_deflation composes with tl_use_cg and tl_use_ppcg only (deck selects %s)", kind)
		}
		if err := f.deflation(); err != nil {
			return fmt.Errorf("core: tl_use_deflation: %w", err)
		}
	}
	return nil
}

// coefficient is the face-coefficient mode the deck selects.
func coefficient(d *deck.Deck) stencil.Coefficient {
	if d.Coefficient == "recip_density" {
		return stencil.RecipConductivity
	}
	return stencil.Conductivity
}

// precondSlot returns the arena slot of the preconditioner's field, the
// one after the face coefficients.
func (r *instance) precondSlot() int { return slotKx + r.dims }

func (inst *Instance) paint() error {
	g, a := inst.Grid, inst.arena
	inst.Density, inst.Energy = a.Field2D(slotDensity, g), a.Field2D(slotEnergy, g)
	inst.U, inst.u0 = a.Field2D(slotU, g), a.Field2D(slotU0, g)
	if err := problem.Paint(inst.Deck.States, inst.Density, inst.Energy); err != nil {
		return err
	}
	// Coefficients need density halos one cell beyond any bounds the
	// solvers compute on: exchange/reflect to the full allocated depth.
	return inst.Comm.Exchange(g.Halo, inst.Density)
}

func (inst *Instance3D) paint() error {
	g, a := inst.Grid, inst.arena
	inst.Density, inst.Energy = a.Field3D(slotDensity, g), a.Field3D(slotEnergy, g)
	inst.U, inst.u0 = a.Field3D(slotU, g), a.Field3D(slotU0, g)
	if err := problem.Paint3D(inst.Deck.States, inst.Density, inst.Energy); err != nil {
		return err
	}
	return inst.Comm.Exchange3D(g.Halo, inst.Density)
}

func (inst *Instance) operator(dt float64) error {
	g, a := inst.Grid, inst.arena
	op, err := stencil.BuildOperator2DInto(inst.Pool, inst.Density, dt, coefficient(inst.Deck),
		stencil.PhysicalSides(inst.Comm.Physical()), a.Field2D(slotKx, g), a.Field2D(slotKx+1, g))
	if err != nil {
		return err
	}
	var d *grid.Field2D
	if inst.spec.Field {
		d = a.Field2D(inst.precondSlot(), g)
	}
	m, err := precond.FromNameInto(inst.Deck.Precond, inst.Pool, op, d)
	if err != nil {
		return err
	}
	if defl, ok := inst.opts.Deflation.(*deflate.Deflation); ok && defl != nil {
		if err := defl.Refresh(op, true); err != nil {
			return err
		}
	}
	inst.Op, inst.opts.Precond = op, m
	return nil
}

func (inst *Instance3D) operator(dt float64) error {
	g, a := inst.Grid, inst.arena
	op, err := stencil.BuildOperator3DInto(inst.Pool, inst.Density, dt, coefficient(inst.Deck),
		stencil.PhysicalSides3D(inst.Comm.Physical3D()), a.Field3D(slotKx, g), a.Field3D(slotKx+1, g), a.Field3D(slotKx+2, g))
	if err != nil {
		return err
	}
	var d *grid.Field3D
	if inst.spec.Field {
		d = a.Field3D(inst.precondSlot(), g)
	}
	m, err := precond.FromName3DInto(inst.Deck.Precond, inst.Pool, op, d)
	if err != nil {
		return err
	}
	if defl, ok := inst.opts.Deflation3D.(*deflate.Deflation3D); ok && defl != nil {
		if err := defl.Refresh(op, true); err != nil {
			return err
		}
	}
	inst.Op, inst.opts.Precond3D = op, m
	return nil
}

func (inst *Instance) deflation() error {
	d, g := inst.Deck, inst.Grid
	defl, err := deflate.New(inst.Pool, inst.Comm, inst.Op, deflate.Geometry{
		GlobalNX: d.XCells, GlobalNY: d.YCells,
		OffsetX: offset(g.XMin, d.XMin, g.DX), OffsetY: offset(g.YMin, d.YMin, g.DY),
	}, deflate.Config{BX: d.DeflationBlocks, BY: d.DeflationBlocks})
	if err != nil {
		return err
	}
	inst.opts.Deflation = defl
	return nil
}

func (inst *Instance3D) deflation() error {
	d, g := inst.Deck, inst.Grid
	defl, err := deflate.New3D(inst.Pool, inst.Comm, inst.Op, deflate.Geometry3D{
		GlobalNX: d.XCells, GlobalNY: d.YCells, GlobalNZ: d.ZCells,
		OffsetX: offset(g.XMin, d.XMin, g.DX), OffsetY: offset(g.YMin, d.YMin, g.DY),
		OffsetZ: offset(g.ZMin, d.ZMin, g.DZ),
	}, deflate.Config{BX: d.DeflationBlocks, BY: d.DeflationBlocks, BZ: d.DeflationBlocks})
	if err != nil {
		return err
	}
	inst.opts.Deflation3D = defl
	return nil
}

// offset locates a rank's sub-grid inside the deck's global mesh along
// one axis. Sub-grids carry true physical coordinates (grid.Grid2D.Sub,
// grid.Grid3D.Sub), so the offset is the vertex distance in cell widths,
// exact up to rounding.
func offset(subMin, deckMin, width float64) int {
	return int(math.Round((subMin - deckMin) / width))
}

func (inst *Instance) solve() (solver.Result, error) {
	problem.EnergyToU(inst.Density, inst.Energy, inst.u0)
	inst.U.CopyFrom(inst.u0) // initial guess: previous energy density
	return inst.ws.Solve(inst.kind, solver.Problem{Op: inst.Op, U: inst.U, RHS: inst.u0}, inst.opts)
}

func (inst *Instance3D) solve() (solver.Result, error) {
	problem.EnergyToU3D(inst.Density, inst.Energy, inst.u0)
	inst.U.CopyFrom(inst.u0)
	return inst.ws.Solve3D(inst.kind, solver.Problem3D{Op: inst.Op, U: inst.U, RHS: inst.u0}, inst.opts)
}

func (inst *Instance) energy() { problem.UToEnergy(inst.Density, inst.U, inst.Energy) }

func (inst *Instance3D) energy() { problem.UToEnergy3D(inst.Density, inst.U, inst.Energy) }

func (inst *Instance) interior() (grid.Rows, []float64, []float64, float64) {
	g := inst.Grid
	return g.Rows(g.Interior()), inst.Density.Data, inst.Energy.Data, g.CellArea()
}

func (inst *Instance3D) interior() (grid.Rows, []float64, []float64, float64) {
	g := inst.Grid
	return g.Rows(g.Interior()), inst.Density.Data, inst.Energy.Data, g.CellVolume()
}

// Options exposes the derived solver options (for harnesses that tweak
// them between steps).
func (r *instance) Options() *solver.Options { return &r.opts }

// Kind returns the solver algorithm the deck selected.
func (r *instance) Kind() solver.Kind { return r.kind }

// Step advances one implicit time step: u⁰ = ρ·e, solve A·u = u⁰, then
// e = u/ρ. Returns the solver result for the step.
func (r *instance) Step() (solver.Result, error) {
	res, err := r.fields.solve()
	if err != nil {
		return res, fmt.Errorf("core: step %d: %w", r.stepNum+1, err)
	}
	if !res.Converged {
		return res, fmt.Errorf("core: step %d: solver did not converge (residual %.3e after %d iterations)",
			r.stepNum+1, res.FinalResidual, res.Iterations)
	}
	r.fields.energy()
	r.stepNum++
	r.simTime += r.dt
	return res, nil
}

// SetTimestep changes the implicit time-step size for subsequent Steps.
// The solve operator A = I + dt·div(k·grad) depends on dt, so a changed
// dt rebuilds the operator and preconditioner — into the arena slots
// their fields already hold, so the instance does not grow — and
// re-assembles the deflation projector's coarse matrix E = WᵀAW (one
// reduction round).
// An unchanged dt is a no-op: the operator, factorization and cached E
// all carry over with zero computation and zero communication — which
// is why harnesses stepping at constant dt pay the coarse assembly
// exactly once. Collective when the dt actually changes and deflation
// is configured.
func (r *instance) SetTimestep(dt float64) error {
	// Checked before the rebuild: it clears the coefficient slots the
	// installed operator reads before the builder could reject dt.
	if !(dt > 0) || math.IsInf(dt, 1) {
		return fmt.Errorf("core: SetTimestep requires a finite dt > 0, got %g", dt)
	}
	if dt == r.dt {
		return nil
	}
	if err := r.fields.operator(dt); err != nil {
		return fmt.Errorf("core: SetTimestep: %w", err)
	}
	r.dt = dt
	return nil
}

// StepCount returns the number of completed steps.
func (r *instance) StepCount() int { return r.stepNum }

// Time returns the simulated time.
func (r *instance) Time() float64 { return r.simTime }

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
// must call it). The local sums walk the interior serially, k, j, i.
func (r *instance) Summarise() Summary {
	w, den, en, cellVol := r.fields.interior()
	n := w.N()
	vol := cellVol * float64(n*(w.J1-w.J0)*(w.K1-w.K0))
	var mass, ie, temp float64
	for k := w.K0; k < w.K1; k++ {
		for j := w.J0; j < w.J1; j++ {
			o := w.Off(j, k)
			ds, es := den[o:o+n], en[o:o+n]
			for i := range ds {
				mass += ds[i] * cellVol
				ie += ds[i] * es[i] * cellVol
				// Temperature is the specific energy (unit heat
				// capacity); unlike ρ·e, its mesh average is NOT
				// conserved by diffusion through variable-density
				// material, which is what makes the Fig. 4 convergence
				// study meaningful.
				temp += es[i] * cellVol
			}
		}
	}
	gvol := r.Comm.AllReduceSum(vol)
	gmass, gie := r.Comm.AllReduceSum2(mass, ie)
	gtemp := r.Comm.AllReduceSum(temp)
	return Summary{
		Volume:         gvol,
		Mass:           gmass,
		InternalEnergy: gie,
		AvgTemperature: gtemp / gvol,
		Steps:          r.stepNum,
		SimTime:        r.simTime,
	}
}

// Run advances the given number of steps (or the deck's own step count if
// steps <= 0) and returns the final summary.
func (r *instance) Run(steps int) (Summary, error) {
	if steps <= 0 {
		steps = r.Deck.Steps()
	}
	var totalIters, totalInner int
	for s := 0; s < steps; s++ {
		res, err := r.Step()
		if err != nil {
			return Summary{}, err
		}
		totalIters += res.Iterations
		totalInner += res.TotalInner
	}
	sum := r.Summarise()
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

// DistResult3D is what RunDistributed3D hands back: the gathered global
// energy field and the global summary.
type DistResult3D struct {
	Energy  *grid.Field3D
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
	pool := rankPool(workersPerRank)
	defer pool.Close() // gives the team's claim on the CPUs back with its workers
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

// RunRank3D is RunRank for a dims=3 deck over a box partition, and the
// per-process entry point of a real-network dims=3 run.
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
	pool := rankPool(workersPerRank)
	defer pool.Close() // gives the team's claim on the CPUs back with its workers
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

// rankPool is one rank's thread team: workers goroutines, or the caller
// alone for workers <= 1.
func rankPool(workers int) *par.Pool {
	if workers > 1 {
		return par.NewPool(workers)
	}
	return par.Serial
}

// RunDistributed runs the deck for the given number of steps on a px×py
// rank decomposition and gathers the final energy field. workersPerRank
// sizes each rank's thread team (the hybrid MPI+OpenMP configuration of
// §IV-A); 1 reproduces flat MPI. By default ranks are goroutines wired
// through a comm.Hub; WithBackend(BackendTCP) runs the same rank code
// over real loopback TCP sockets instead.
func RunDistributed(d *deck.Deck, px, py, steps, workersPerRank int, opts ...DistOption) (*DistResult, error) {
	part, err := grid.NewPartition(d.XCells, d.YCells, px, py)
	if err != nil {
		return nil, err
	}
	return distribute(opts, part, comm.RunTCP, comm.Run, func(c comm.Communicator) (*DistResult, error) {
		return RunRank(d, part, c, steps, workersPerRank)
	})
}

// RunDistributed3D runs a dims=3 deck for the given number of steps on a
// px×py×pz rank decomposition and gathers the final energy field, over
// the same backends as RunDistributed.
func RunDistributed3D(d *deck.Deck, px, py, pz, steps, workersPerRank int, opts ...DistOption) (*DistResult3D, error) {
	part, err := grid.NewPartition3D(d.XCells, d.YCells, d.ZCells, px, py, pz)
	if err != nil {
		return nil, err
	}
	return distribute(opts, part, comm.RunTCP3D, comm.Run3D, func(c comm.Communicator) (*DistResult3D, error) {
		return RunRank3D(d, part, c, steps, workersPerRank)
	})
}

// distribute runs rank on every rank of part over the backend the options
// select — tcp or hub, the comm package's runners for P — and returns
// rank 0's result.
func distribute[P any, R any](opts []DistOption, part P,
	tcp func(P, func(comm.Communicator) error) error,
	hub func(P, func(*comm.RankComm) error) error,
	rank func(comm.Communicator) (*R, error)) (*R, error) {
	cfg := distConfig{backend: BackendHub}
	for _, o := range opts {
		o(&cfg)
	}
	out := new(R)
	body := func(c comm.Communicator) error {
		res, err := rank(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			*out = *res
		}
		return nil
	}
	var err error
	switch cfg.backend {
	case BackendTCP:
		err = tcp(part, body)
	case BackendHub:
		err = hub(part, func(c *comm.RankComm) error { return body(c) })
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

// Package comm is the distributed-memory communication substrate: the role
// MPI plays in the original TeaLeaf. Three backends implement the same
// Communicator contract:
//
//   - Serial: single-rank; halo exchanges reduce to reflective boundary
//     fills and reductions are identities.
//   - Hub / RankComm: ranks are goroutines in one process; point-to-point
//     halo messages travel over buffered channels and global reductions
//     use a shared generation-counted accumulator (semantically an
//     MPI_Allreduce). This is the reference implementation.
//   - TCP: one process per rank on a real network, speaking the
//     length-prefixed frame protocol in wire.go over per-neighbour
//     persistent connections, with recursive-doubling reductions — the
//     backend that takes the same solver code across actual machines.
//
// Solvers are written against the Communicator interface exactly as
// TeaLeaf's solvers are written against MPI: every deep-halo exchange and
// every dot-product reduction goes through it, so the same solver code
// runs single-rank or multi-rank on any backend, and every communication
// event is recorded in a stats.Trace for the performance model.
//
// The halo exchange is written once (exchange.go), for every backend and
// both dimensions: it runs over a field's grid.Layout, in which a 2D
// field is the nz = 1 case with no z halo, and over one decomposition
// per Hub or TCP communicator, in which a 2D partition is one rank deep
// in z. Exchange and Exchange3D, and each backend's GatherInterior and
// GatherInterior3D, are adapters onto that code.
package comm

import (
	"tealeaf/internal/grid"
	"tealeaf/internal/stats"
)

// Communicator is the solver-facing communication interface.
type Communicator interface {
	// Rank returns this communicator's rank id in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Exchange refreshes depth halo layers of the given fields: neighbour
	// data across internal boundaries, reflective (zero-flux) mirrors on
	// physical boundaries. depth must not exceed the fields' grid halo.
	Exchange(depth int, fields ...*grid.Field2D) error
	// Exchange3D is Exchange for 3D fields: six faces, with edge and
	// corner halo cells made coherent by the three-phase ordering.
	// Multi-rank communicators must have been built over a Partition3D.
	Exchange3D(depth int, fields ...*grid.Field3D) error
	// AllReduceSum returns the sum of x over all ranks.
	AllReduceSum(x float64) float64
	// AllReduceSum2 fuses two sums into one reduction (one latency).
	AllReduceSum2(x, y float64) (float64, float64)
	// AllReduceSumN sums each element of vals over all ranks in a single
	// reduction round — the §VII restructuring that lets a fused solver
	// iteration pay one allreduce latency for all of its dot products.
	// The returned slice may alias vals; it never aliases another rank's
	// result, so callers may mutate it freely.
	//
	// Determinism: every backend folds the ranks' contributions in a
	// fixed, schedule-independent order — the Hub in ascending rank
	// order, TCP along its fixed recursive-doubling schedule — never in
	// arrival order, so for a given backend and rank count the same
	// contributions produce bit-identical sums run to run and regardless
	// of each rank's worker count. (Arrival order hides at 2 ranks
	// because IEEE addition is commutative; at 3+ it is not associative
	// and an arrival-order fold would leak scheduling into the last bits
	// of every dot product.) Every reduction method shares the fold. The
	// two backends' fold orders differ from each other, so
	// bit-reproducibility holds per backend, not across them.
	AllReduceSumN(vals []float64) []float64
	// AllReduceSumNStart is AllReduceSumN behind a handle: it blocks for
	// the whole round (counted once, as AllReduceSumN counts it) and
	// returns a handle whose Finish hands back the sums. No engine
	// overlaps a reduction with compute (pipelined CG, the one that did,
	// measured slower and was removed), so every backend runs it through
	// one blocking adapter, kept only while code outside this package
	// still names the method.
	AllReduceSumNStart(vals []float64) ReduceHandle
	// AllReduceSumNStartTagged is AllReduceSumNStart; the tag is ignored.
	AllReduceSumNStartTagged(tag int, vals []float64) ReduceHandle
	// AllReduceMax returns the maximum of x over all ranks.
	AllReduceMax(x float64) float64
	// Barrier blocks until every rank has entered it.
	Barrier()
	// GatherInterior assembles the ranks' interior blocks into the global
	// field dst on rank 0 (dst may be nil on other ranks). Collective:
	// every rank must call it. Used for output and verification, not in
	// solver inner loops.
	GatherInterior(local *grid.Field2D, dst *grid.Field2D) error
	// GatherInterior3D is GatherInterior for 3D fields.
	GatherInterior3D(local *grid.Field3D, dst *grid.Field3D) error
	// Physical reports which sides of this rank touch the domain boundary.
	Physical() PhysicalSides
	// Physical3D is Physical for the six faces of a 3D sub-domain.
	Physical3D() PhysicalSides3D
	// Trace returns this rank's communication trace (never nil).
	Trace() *stats.Trace
}

// ReduceHandle is the result of AllReduceSumNStart: Finish returns the
// fused sums.
type ReduceHandle interface {
	Finish() []float64
}

// doneHandle is a ReduceHandle whose round has already run.
type doneHandle []float64

func (h doneHandle) Finish() []float64 { return h }

// blockingStart is every backend's AllReduceSumNStart{,Tagged}: the
// blocking AllReduceSumN of the communicator it is embedded in, behind
// an already-finished handle.
type blockingStart struct {
	sumN func(vals []float64) []float64
}

// AllReduceSumNStart implements Communicator: the blocking round.
func (b blockingStart) AllReduceSumNStart(vals []float64) ReduceHandle {
	return doneHandle(b.sumN(vals))
}

// AllReduceSumNStartTagged implements Communicator: the blocking round;
// the tag is ignored.
func (b blockingStart) AllReduceSumNStartTagged(_ int, vals []float64) ReduceHandle {
	return doneHandle(b.sumN(vals))
}

// PhysicalSides mirrors stencil.PhysicalSides without importing it (comm
// sits below stencil in the dependency order).
type PhysicalSides struct {
	Left, Right, Down, Up bool
}

// PhysicalSides3D is PhysicalSides for the six faces of a 3D sub-domain.
type PhysicalSides3D struct {
	Left, Right, Down, Up, Back, Front bool
}

// Serial is the single-rank communicator: halo exchanges reduce to
// reflective boundary fills and reductions are identities. It still
// records every operation in its trace so single-rank runs produce the
// same instrumentation as distributed ones.
type Serial struct {
	blockingStart
	trace stats.Trace
}

// NewSerial returns a fresh single-rank communicator.
func NewSerial() *Serial {
	s := &Serial{}
	s.blockingStart.sumN = s.AllReduceSumN
	return s
}

// Rank implements Communicator.
func (s *Serial) Rank() int { return 0 }

// Size implements Communicator.
func (s *Serial) Size() int { return 1 }

// Physical implements Communicator: every side is the domain boundary.
func (s *Serial) Physical() PhysicalSides {
	return PhysicalSides{Left: true, Right: true, Down: true, Up: true}
}

// Physical3D implements Communicator: every face is the domain boundary.
func (s *Serial) Physical3D() PhysicalSides3D {
	return PhysicalSides3D{Left: true, Right: true, Down: true, Up: true, Back: true, Front: true}
}

// Exchange implements Communicator by reflecting all four sides. It runs
// the multi-rank exchange's core with no neighbours, so it validates
// exactly as that does — depth against the halo, and a shared grid shape
// across all fields — and a mixed-shape multi-field exchange fails
// identically single- and multi-rank.
func (s *Serial) Exchange(depth int, fields ...*grid.Field2D) error {
	return exchange(nil, wholeDomain(2), &s.trace, 2, depth, fields)
}

// Exchange3D implements Communicator by reflecting all six faces.
func (s *Serial) Exchange3D(depth int, fields ...*grid.Field3D) error {
	return exchange(nil, wholeDomain(3), &s.trace, 3, depth, fields)
}

// AllReduceSum implements Communicator.
func (s *Serial) AllReduceSum(x float64) float64 {
	s.trace.AddReduction(1)
	return x
}

// AllReduceSum2 implements Communicator.
func (s *Serial) AllReduceSum2(x, y float64) (float64, float64) {
	s.trace.AddReduction(2)
	return x, y
}

// AllReduceSumN implements Communicator.
func (s *Serial) AllReduceSumN(vals []float64) []float64 {
	s.trace.AddReduction(len(vals))
	return vals
}

// AllReduceMax implements Communicator.
func (s *Serial) AllReduceMax(x float64) float64 {
	s.trace.AddReduction(1)
	return x
}

// Barrier implements Communicator.
func (s *Serial) Barrier() {}

// GatherInterior implements Communicator: single-rank, the "gather" is a
// straight interior copy into dst (which must match the local shape).
func (s *Serial) GatherInterior(local *grid.Field2D, dst *grid.Field2D) error {
	return serialGather(2, local, dst)
}

// GatherInterior3D implements Communicator: GatherInterior for 3D fields.
func (s *Serial) GatherInterior3D(local *grid.Field3D, dst *grid.Field3D) error {
	return serialGather(3, local, dst)
}

func serialGather[F haloField](dims int, local, dst F) error {
	lay := local.Layout()
	if err := gatherDestination(dst, dims, lay.N); err != nil {
		return err
	}
	placeInterior(dst.Layout(), dst.DataOrNil(), grid.Extent3D{}, lay, local.DataOrNil())
	return nil
}

// Trace implements Communicator.
func (s *Serial) Trace() *stats.Trace { return &s.trace }

var _ Communicator = (*Serial)(nil)

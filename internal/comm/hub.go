package comm

import (
	"fmt"
	"sync"

	"tealeaf/internal/grid"
	"tealeaf/internal/place"
	"tealeaf/internal/stats"
)

// Hub owns the shared state of a multi-rank run: the partition (2D or
// 3D), the point-to-point mailboxes, and the collective accumulator.
// Create one Hub per distributed solve, obtain one RankComm per rank with
// Comm, and run each rank in its own goroutine.
type Hub struct {
	part  *grid.Partition   // set for 2D runs
	part3 *grid.Partition3D // set for 3D runs
	// mail[rank][side] delivers messages that arrive at rank from the
	// given direction. Buffered so a rank can post all its sends for a
	// phase before draining its receives.
	mail [][]chan []float64
	coll *collective
	// colls holds the per-tag collectives of tagged split-phase rounds
	// (AllReduceSumNStartTagged): one generation-counted accumulator per
	// tag, created lazily. Tag 0 maps to coll so tagged and untagged
	// rounds on tag 0 share one generation sequence.
	collMu sync.Mutex
	colls  map[int]*collective
	gat    chan gatherMsg
	gat3   chan gatherMsg3
}

// NewHub builds the communication fabric for the given 2D partition.
func NewHub(part *grid.Partition) *Hub {
	return newHub(part, nil, part.Ranks())
}

// NewHub3D builds the communication fabric for the given 3D partition.
func NewHub3D(part3 *grid.Partition3D) *Hub {
	return newHub(nil, part3, part3.Ranks())
}

func newHub(part *grid.Partition, part3 *grid.Partition3D, n int) *Hub {
	h := &Hub{
		part:  part,
		part3: part3,
		mail:  make([][]chan []float64, n),
		coll:  newCollective(n),
		gat:   make(chan gatherMsg, n),
		gat3:  make(chan gatherMsg3, n),
	}
	for r := 0; r < n; r++ {
		h.mail[r] = make([]chan []float64, grid.NumSides3D)
		for s := range h.mail[r] {
			h.mail[r][s] = make(chan []float64, 2)
		}
	}
	return h
}

// Ranks returns the hub's rank count.
func (h *Hub) Ranks() int {
	if h.part3 != nil {
		return h.part3.Ranks()
	}
	return h.part.Ranks()
}

// Partition returns the 2D partition the hub was built for (nil for 3D hubs).
func (h *Hub) Partition() *grid.Partition { return h.part }

// Partition3D returns the 3D partition the hub was built for (nil for 2D hubs).
func (h *Hub) Partition3D() *grid.Partition3D { return h.part3 }

// Comm returns the communicator endpoint for the given rank.
func (h *Hub) Comm(rank int) *RankComm {
	if rank < 0 || rank >= h.Ranks() {
		panic(fmt.Sprintf("comm: rank %d outside [0,%d)", rank, h.Ranks()))
	}
	return &RankComm{hub: h, rank: rank}
}

// RankComm is one rank's endpoint of a Hub. Methods must be called from
// that rank's goroutine only.
type RankComm struct {
	hub   *Hub
	rank  int
	trace stats.Trace
}

var _ Communicator = (*RankComm)(nil)

// Rank implements Communicator.
func (c *RankComm) Rank() int { return c.rank }

// Size implements Communicator.
func (c *RankComm) Size() int { return c.hub.Ranks() }

// Trace implements Communicator.
func (c *RankComm) Trace() *stats.Trace { return &c.trace }

// Physical implements Communicator. The hub must have been built over a
// 2D partition.
func (c *RankComm) Physical() PhysicalSides {
	p := c.hub.part
	if p == nil {
		panic("comm: Physical called on a 3D-partition communicator; use Physical3D")
	}
	return PhysicalSides{
		Left:  p.OnBoundary(c.rank, grid.Left),
		Right: p.OnBoundary(c.rank, grid.Right),
		Down:  p.OnBoundary(c.rank, grid.Down),
		Up:    p.OnBoundary(c.rank, grid.Up),
	}
}

// Physical3D implements Communicator. The hub must have been built over a
// 3D partition.
func (c *RankComm) Physical3D() PhysicalSides3D {
	p := c.hub.part3
	if p == nil {
		panic("comm: Physical3D called on a 2D-partition communicator; use Physical")
	}
	return PhysicalSides3D{
		Left:  p.OnBoundary(c.rank, grid.Left),
		Right: p.OnBoundary(c.rank, grid.Right),
		Down:  p.OnBoundary(c.rank, grid.Down),
		Up:    p.OnBoundary(c.rank, grid.Up),
		Back:  p.OnBoundary(c.rank, grid.Back),
		Front: p.OnBoundary(c.rank, grid.Front),
	}
}

// hubSlabs carries exchange slabs over the Hub's buffered mailbox
// channels; it is RankComm's slabTransport for the shared exchange core.
type hubSlabs struct{ c *RankComm }

// slab hands out fresh memory: sendSlab passes the slice to the receiver.
func (h hubSlabs) slab(n int) []float64 { return make([]float64, 0, n) }

func (h hubSlabs) sendSlab(to int, side grid.Side, msg []float64) error {
	h.c.hub.mail[to][side] <- msg
	return nil
}

func (h hubSlabs) recvSlab(from int, side grid.Side, wantLen int) ([]float64, error) {
	msg := <-h.c.hub.mail[h.c.rank][side]
	if len(msg) != wantLen {
		return nil, fmt.Errorf("comm: rank %d: exchange slab from rank %d has %d values, want %d (mismatched field sets across ranks?)",
			h.c.rank, from, len(msg), wantLen)
	}
	return msg, nil
}

// Exchange implements Communicator with the standard two-phase
// corner-correct scheme — exactly TeaLeaf's update_halo ordering. The
// phase core (validation, reflect/pack/send/recv/unpack) is shared with
// the TCP backend in exchange.go; only the slab transport differs.
func (c *RankComm) Exchange(depth int, fields ...*grid.Field2D) error {
	if len(fields) == 0 {
		return nil
	}
	if c.hub.part == nil {
		return fmt.Errorf("comm: 2D exchange on a 3D-partition communicator")
	}
	messages, bytes, err := exchange2D(hubSlabs{c}, c.hub.part, c.rank, c.Physical(), depth, fields)
	if err != nil {
		return err
	}
	c.trace.AddExchange(depth, messages, bytes)
	return nil
}

// packX packs columns [x0,x1) over interior rows [0,NY) of every field.
func packX(tr slabTransport, fields []*grid.Field2D, x0, x1, depth int) []float64 {
	g := fields[0].Grid
	msg := tr.slab(len(fields) * (x1 - x0) * g.NY)
	for _, f := range fields {
		for k := 0; k < g.NY; k++ {
			msg = append(msg, f.Row(k, x0, x1)...)
		}
	}
	return msg
}

func unpackX(fields []*grid.Field2D, msg []float64, x0, x1, depth int) {
	g := fields[0].Grid
	pos := 0
	w := x1 - x0
	for _, f := range fields {
		for k := 0; k < g.NY; k++ {
			copy(f.Row(k, x0, x1), msg[pos:pos+w])
			pos += w
		}
	}
}

// packY packs rows [y0,y1) spanning [-depth, NX+depth) of every field,
// including the x-halo columns (they carry the diagonal-corner data).
func packY(tr slabTransport, fields []*grid.Field2D, y0, y1, depth int) []float64 {
	g := fields[0].Grid
	w := g.NX + 2*depth
	msg := tr.slab(len(fields) * (y1 - y0) * w)
	for _, f := range fields {
		for k := y0; k < y1; k++ {
			msg = append(msg, f.Row(k, -depth, g.NX+depth)...)
		}
	}
	return msg
}

func unpackY(fields []*grid.Field2D, msg []float64, y0, y1, depth int) {
	g := fields[0].Grid
	w := g.NX + 2*depth
	pos := 0
	for _, f := range fields {
		for k := y0; k < y1; k++ {
			copy(f.Row(k, -depth, g.NX+depth), msg[pos:pos+w])
			pos += w
		}
	}
}

// AllReduceSum implements Communicator.
func (c *RankComm) AllReduceSum(x float64) float64 {
	c.trace.AddReduction(1)
	return c.hub.coll.reduce(opSum, c.rank, x)[0]
}

// AllReduceSum2 implements Communicator: two sums, one reduction latency.
func (c *RankComm) AllReduceSum2(x, y float64) (float64, float64) {
	c.trace.AddReduction(2)
	r := c.hub.coll.reduce(opSum, c.rank, x, y)
	return r[0], r[1]
}

// AllReduceSumN implements Communicator: len(vals) sums, one reduction
// latency.
func (c *RankComm) AllReduceSumN(vals []float64) []float64 {
	c.trace.AddReduction(len(vals))
	return c.hub.coll.reduce(opSum, c.rank, vals...)
}

// AllReduceSumNStart implements Communicator split-phase: the
// contribution joins the collective's current generation immediately
// (without waiting for the other ranks), and Finish blocks on the
// generation's completion. The Hub deliberately mirrors the TCP
// semantics — Start never waits on a peer, Finish does all the waiting —
// so the two backends cannot drift.
func (c *RankComm) AllReduceSumNStart(vals []float64) ReduceHandle {
	c.trace.AddReduction(len(vals))
	return c.hub.coll.start(opSum, c.rank, vals)
}

// AllReduceSumNStartTagged implements Communicator: each tag gets its own
// generation-counted collective, so several tagged rounds can be in
// flight at once (at most one per tag per rank). Tag 0 is the untagged
// AllReduceSumNStart collective.
func (c *RankComm) AllReduceSumNStartTagged(tag int, vals []float64) ReduceHandle {
	c.trace.AddReduction(len(vals))
	return c.hub.collFor(tag).start(opSum, c.rank, vals)
}

// collFor returns the collective for a reduction tag, creating it on
// first use. Tag 0 aliases the untagged collective by construction.
func (h *Hub) collFor(tag int) *collective {
	if tag == 0 {
		return h.coll
	}
	h.collMu.Lock()
	defer h.collMu.Unlock()
	if h.colls == nil {
		h.colls = make(map[int]*collective)
	}
	coll, ok := h.colls[tag]
	if !ok {
		coll = newCollective(h.Ranks())
		h.colls[tag] = coll
	}
	return coll
}

// AllReduceMax implements Communicator.
func (c *RankComm) AllReduceMax(x float64) float64 {
	c.trace.AddReduction(1)
	return c.hub.coll.reduce(opMax, c.rank, x)[0]
}

// Barrier implements Communicator.
func (c *RankComm) Barrier() { c.hub.coll.reduce(opSum, c.rank) }

// collective is a generation-counted all-reduce accumulator. Every rank
// calls reduce once per generation; the last arrival publishes the result
// and releases the waiters. The published result is stable until every
// rank of the *next* generation has arrived, which cannot happen before
// all waiters of this generation have returned.
//
// Contributions are stashed per rank and folded in ascending RANK order at
// publication — never in arrival order. Arrival order depends on goroutine
// scheduling, so an arrival-order fold makes every ≥3-rank sum a function
// of timing (two-rank sums escape because IEEE addition is commutative,
// which is exactly why the bug hid at small rank counts): the same deck
// would produce different bits run to run and across per-rank worker
// counts, breaking the solver's determinism contract.
type collective struct {
	n       int
	mu      sync.Mutex
	cnt     int
	width   int
	contrib [][]float64
	res     []float64
	done    chan struct{}
}

func newCollective(n int) *collective { return &collective{n: n} }

type reduceOp int

const (
	opSum reduceOp = iota
	opMax
)

// reduce combines vals across all ranks and writes the result back into
// this caller's vals slice, returning it. Every rank receives its own
// backing array (never the shared accumulator): AllReduceSumN documents
// that callers may mutate the returned slice, so handing out one shared
// slice would let rank A's mutation corrupt rank B's result.
//
// It is literally start followed by Finish, so the blocking and
// split-phase paths share one generation protocol by construction.
func (c *collective) reduce(op reduceOp, rank int, vals ...float64) []float64 {
	return c.start(op, rank, vals).Finish()
}

// start contributes vals to the collective's current generation without
// waiting for the other ranks — the Hub's half of the split-phase
// contract (Start may not block on peers) — and returns the handle whose
// Finish waits for the generation to complete. The last arrival folds the
// stashed contributions in ascending rank order, publishes the result and
// releases every waiter at start time, so its Finish is free.
func (c *collective) start(op reduceOp, rank int, vals []float64) *collHandle {
	c.mu.Lock()
	if c.cnt == 0 {
		c.width = len(vals)
		if c.contrib == nil {
			c.contrib = make([][]float64, c.n)
		}
		c.done = make(chan struct{})
	} else if len(vals) != c.width {
		c.mu.Unlock()
		panic(fmt.Sprintf("comm: collective value-count mismatch: this rank contributed %d values but the generation started with %d (every rank must pass the same number of values to each reduction)",
			len(vals), c.width))
	}
	c.contrib[rank] = append(c.contrib[rank][:0], vals...)
	c.cnt++
	if c.cnt == c.n {
		c.cnt = 0
		res := make([]float64, c.width)
		copy(res, c.contrib[0])
		for r := 1; r < c.n; r++ {
			for i, v := range c.contrib[r] {
				switch op {
				case opSum:
					res[i] += v
				case opMax:
					if v > res[i] {
						res[i] = v
					}
				}
			}
		}
		c.res = res
		close(c.done)
	}
	done := c.done
	c.mu.Unlock()
	return &collHandle{coll: c, vals: vals, done: done}
}

// collHandle is the Hub's in-flight split-phase reduction. The published
// result (coll.res, a fresh allocation per generation) is stable until
// every rank of the *next* generation has arrived, which — under the
// one-outstanding-reduction-per-rank contract — cannot happen before
// every Finish of this generation has returned.
type collHandle struct {
	coll *collective
	vals []float64
	done chan struct{}
}

func (h *collHandle) Finish() []float64 {
	<-h.done
	copy(h.vals, h.coll.res)
	return h.vals
}

// gatherMsg carries one rank's interior block to rank 0.
type gatherMsg struct {
	extent grid.Extent
	data   []float64 // row-major, extent.NX() wide
}

// GatherInterior assembles the ranks' interior blocks into the provided
// global field on rank 0 (dst may be nil on other ranks). Collective: every
// rank must call it. Used for output and verification, not in solver inner
// loops.
func (c *RankComm) GatherInterior(local *grid.Field2D, dst *grid.Field2D) error {
	if c.hub.part == nil {
		return fmt.Errorf("comm: 2D gather on a 3D-partition communicator")
	}
	ext := c.hub.part.ExtentOf(c.rank)
	g := local.Grid
	if g.NX != ext.NX() || g.NY != ext.NY() {
		return fmt.Errorf("comm: local field %dx%d does not match extent %dx%d",
			g.NX, g.NY, ext.NX(), ext.NY())
	}
	data := make([]float64, 0, ext.Cells())
	for k := 0; k < g.NY; k++ {
		data = append(data, local.Row(k, 0, g.NX)...)
	}
	c.hub.gat <- gatherMsg{extent: ext, data: data}
	if c.rank != 0 {
		// The trailing barrier keeps consecutive gathers from interleaving:
		// nobody starts the next gather until rank 0 drained this one.
		c.Barrier()
		return nil
	}
	var err error
	switch {
	case dst == nil:
		err = fmt.Errorf("comm: rank 0 needs a destination field")
	case dst.Grid.NX != c.hub.part.NX || dst.Grid.NY != c.hub.part.NY:
		err = fmt.Errorf("comm: destination %dx%d does not match global %dx%d",
			dst.Grid.NX, dst.Grid.NY, c.hub.part.NX, c.hub.part.NY)
	}
	// Drain even on error so the other ranks' barrier is released.
	for i := 0; i < c.Size(); i++ {
		m := <-c.hub.gat
		if err != nil {
			continue
		}
		pos := 0
		w := m.extent.NX()
		for k := m.extent.Y0; k < m.extent.Y1; k++ {
			copy(dst.Row(k, m.extent.X0, m.extent.X1), m.data[pos:pos+w])
			pos += w
		}
	}
	c.Barrier()
	return err
}

// Run launches fn on every rank of the partition in its own goroutine and
// waits for all of them; the returned error is the first non-nil error by
// rank order. This is the `mpirun` of the package, and like one it starts
// the ranks on different CPUs (place.Spread: rank r, r CPUs on from the
// caller's).
func Run(part *grid.Partition, fn func(c *RankComm) error) error {
	h := NewHub(part)
	errs := make([]error, part.Ranks())
	var wg sync.WaitGroup
	cpu := place.Current()
	for r := 0; r < part.Ranks(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			place.Spread(cpu, rank)
			errs[rank] = fn(h.Comm(rank))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tealeaf/internal/grid"
	"tealeaf/internal/place"
	"tealeaf/internal/stats"
)

// Hub owns the shared state of a multi-rank run: the decomposition (2D
// or 3D), the point-to-point mailboxes, and the collective accumulator.
// Run and Run3D build one per distributed solve and run each rank, with
// the RankComm that Comm returns, in its own goroutine.
type Hub struct {
	dec *decomposition
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
	// apart keeps the ranks off each other's CPUs (see place.Group); set
	// by Run and Run3D, whose ranks change threads whenever a receive
	// parks them.
	apart *place.Group
}

func newHub(dec *decomposition) *Hub {
	n := dec.ranks()
	h := &Hub{
		dec:  dec,
		mail: make([][]chan []float64, n),
		coll: newCollective(n),
		gat:  make(chan gatherMsg, n),
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
func (h *Hub) Ranks() int { return h.dec.ranks() }

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
	// free holds the exchange slabs this rank may pack into, and held the
	// slab its last recvSlab returned, which joins free at the next
	// recvSlab (its lifetime under slabTransport's contract). Slabs
	// travel with the messages they carry, so a rank packs into slabs its
	// neighbours sent it, and a warmed exchange allocates none. Owned by
	// the rank's goroutine, like every method.
	free [][]float64
	held []float64
}

// maxFreeSlabs bounds a rank's free list: an exchange sends at most one
// slab per side, so more than two per side are never all needed.
const maxFreeSlabs = 2 * int(grid.NumSides3D)

var _ Communicator = (*RankComm)(nil)

// Rank implements Communicator.
func (c *RankComm) Rank() int { return c.rank }

// Size implements Communicator.
func (c *RankComm) Size() int { return c.hub.Ranks() }

// Trace implements Communicator.
func (c *RankComm) Trace() *stats.Trace { return &c.trace }

// Physical implements Communicator. The hub must have been built over a
// 2D partition.
func (c *RankComm) Physical() PhysicalSides { return c.hub.dec.physical(c.rank) }

// Physical3D implements Communicator. The hub must have been built over a
// 3D partition.
func (c *RankComm) Physical3D() PhysicalSides3D { return c.hub.dec.physical3D(c.rank) }

// hubSlabs carries exchange slabs over the Hub's buffered mailbox
// channels; it is RankComm's slabTransport for the shared exchange core.
type hubSlabs struct{ c *RankComm }

// slab hands out the smallest free slab with room for n values, or
// fresh memory when none has: sendSlab passes the slice itself to the
// receiver, so it must not be one this rank still reads.
func (h hubSlabs) slab(n int) []float64 {
	c := h.c
	best := -1
	for i, s := range c.free {
		if cap(s) >= n && (best < 0 || cap(s) < cap(c.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]float64, 0, n)
	}
	s := c.free[best]
	last := len(c.free) - 1
	c.free[best], c.free[last] = c.free[last], nil
	c.free = c.free[:last]
	return s[:0]
}

func (h hubSlabs) sendSlab(to int, side grid.Side, msg []float64) error {
	h.c.hub.mail[to][side] <- msg
	return nil
}

func (h hubSlabs) recvSlab(from int, side grid.Side, wantLen int) ([]float64, error) {
	c := h.c
	if c.held != nil && len(c.free) < maxFreeSlabs {
		if c.free == nil {
			c.free = make([][]float64, 0, maxFreeSlabs)
		}
		c.free = append(c.free, c.held)
	}
	box := c.hub.mail[c.rank][side]
	var msg []float64
	if !place.Spin(func() bool {
		select {
		case msg = <-box:
			return true
		default:
			return false
		}
	}) {
		msg = <-box
	}
	c.hub.apart.Check(c.rank) // the wait may have moved this goroutine to another thread
	c.held = msg
	if len(msg) != wantLen {
		return nil, fmt.Errorf("comm: rank %d: exchange slab from rank %d has %d values, want %d (mismatched field sets across ranks?)",
			h.c.rank, from, len(msg), wantLen)
	}
	return msg, nil
}

// Exchange implements Communicator with the standard two-phase
// corner-correct scheme — exactly TeaLeaf's update_halo ordering. The
// phase core (validation, reflect/pack/send/recv/unpack) is shared with
// the TCP and Serial backends and with Exchange3D in exchange.go; only
// the slab transport differs.
func (c *RankComm) Exchange(depth int, fields ...*grid.Field2D) error {
	return exchange(hubSlabs{c}, c.hub.dec.rank(c.rank), &c.trace, 2, depth, fields)
}

// Exchange3D implements Communicator: Exchange's core with its z phase.
func (c *RankComm) Exchange3D(depth int, fields ...*grid.Field3D) error {
	return exchange(hubSlabs{c}, c.hub.dec.rank(c.rank), &c.trace, 3, depth, fields)
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
		coll.apart = h.apart
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
// joins each generation once; the last arrival folds the contributions,
// publishes the result and releases the waiters. The published result is
// stable until every rank of the *next* generation has arrived, which
// cannot happen before all waiters of this generation have returned, so
// one result buffer serves every generation and a warmed round allocates
// nothing.
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
	// gen counts the published generations: a rank that joined while it
	// read g has its result once gen passes g. Waiters spin on it, then
	// park on their own wake channel after setting parked under mu; the
	// last arrival sends a token to every parked rank.
	gen    atomic.Uint64
	parked []bool
	wake   []chan struct{}
	// handles holds each rank's split-phase handle, reused round after
	// round (one reduction in flight per rank and collective).
	handles []collHandle
	apart   *place.Group
}

func newCollective(n int) *collective {
	c := &collective{
		n:       n,
		contrib: make([][]float64, n),
		parked:  make([]bool, n),
		wake:    make([]chan struct{}, n),
		handles: make([]collHandle, n),
	}
	for r := range c.wake {
		c.wake[r] = make(chan struct{}, 1)
	}
	return c
}

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
// It is join followed by wait, as the split-phase path's start and
// Finish are, so both share one generation protocol by construction.
func (c *collective) reduce(op reduceOp, rank int, vals ...float64) []float64 {
	c.wait(rank, c.join(op, rank, vals))
	copy(vals, c.res)
	return vals
}

// start contributes vals to the collective's current generation without
// waiting for the other ranks — the Hub's half of the split-phase
// contract (Start may not block on peers) — and returns the rank's handle,
// whose Finish waits for the generation to complete.
func (c *collective) start(op reduceOp, rank int, vals []float64) *collHandle {
	h := &c.handles[rank]
	*h = collHandle{coll: c, rank: rank, gen: c.join(op, rank, vals), vals: vals}
	return h
}

// join adds vals to the current generation and returns its number. The
// last arrival folds the stashed contributions in ascending rank order,
// publishes the result and wakes the parked waiters, so its own wait is
// free.
func (c *collective) join(op reduceOp, rank int, vals []float64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cnt == 0 {
		c.width = len(vals)
	} else if len(vals) != c.width {
		panic(fmt.Sprintf("comm: collective value-count mismatch: this rank contributed %d values but the generation started with %d (every rank must pass the same number of values to each reduction)",
			len(vals), c.width))
	}
	g := c.gen.Load()
	c.contrib[rank] = append(c.contrib[rank][:0], vals...)
	c.cnt++
	if c.cnt < c.n {
		return g
	}
	c.cnt = 0
	c.res = append(c.res[:0], c.contrib[0]...)
	for r := 1; r < c.n; r++ {
		for i, v := range c.contrib[r] {
			switch op {
			case opSum:
				c.res[i] += v
			case opMax:
				if v > c.res[i] {
					c.res[i] = v
				}
			}
		}
	}
	c.gen.Store(g + 1)
	// A wake channel is empty here, so the send never blocks under mu: a
	// parked rank takes its token before it can join, let alone park,
	// again.
	for r, p := range c.parked {
		if p {
			c.parked[r] = false
			c.wake[r] <- struct{}{}
		}
	}
	return g
}

// wait returns once generation g has been published: at once for its last
// arrival, after a spin for a rank that arrives shortly before it, parked
// on the rank's wake channel otherwise.
func (c *collective) wait(rank int, g uint64) {
	if !place.Spin(func() bool { return c.gen.Load() > g }) {
		c.mu.Lock()
		parks := c.gen.Load() == g
		c.parked[rank] = parks
		c.mu.Unlock()
		if parks {
			<-c.wake[rank]
		}
	}
	c.apart.Check(rank) // the wait may have moved this goroutine to another thread
}

// collHandle is the Hub's in-flight split-phase reduction: the rank's
// generation and the slice its result is copied back into.
type collHandle struct {
	coll *collective
	rank int
	gen  uint64
	vals []float64
}

func (h *collHandle) Finish() []float64 {
	h.coll.wait(h.rank, h.gen)
	copy(h.vals, h.coll.res)
	return h.vals
}

// gatherMsg carries one rank's interior block to rank 0.
type gatherMsg struct {
	extent grid.Extent3D
	data   []float64 // in storage order, extent.NX() wide rows
}

// GatherInterior assembles the ranks' interior blocks into the provided
// global field on rank 0 (dst may be nil on other ranks). Collective: every
// rank must call it. Used for output and verification, not in solver inner
// loops.
func (c *RankComm) GatherInterior(local *grid.Field2D, dst *grid.Field2D) error {
	return hubGather(c, 2, local, dst)
}

// GatherInterior3D implements Communicator: GatherInterior for 3D fields.
func (c *RankComm) GatherInterior3D(local *grid.Field3D, dst *grid.Field3D) error {
	return hubGather(c, 3, local, dst)
}

// hubGather is the Hub's one gather: every rank posts its block on the
// hub's gather channel and rank 0 drains them into dst by extent.
func hubGather[F haloField](c *RankComm, dims int, local, dst F) error {
	d := c.hub.dec
	lay := local.Layout()
	ext, err := d.gatherSource(dims, c.rank, lay)
	if err != nil {
		return err
	}
	data := appendBox(make([]float64, 0, ext.Cells()), lay, local.DataOrNil(), interior(lay))
	c.hub.gat <- gatherMsg{extent: ext, data: data}
	if c.rank != 0 {
		// The trailing barrier keeps consecutive gathers from interleaving:
		// nobody starts the next gather until rank 0 drained this one.
		c.Barrier()
		return nil
	}
	err = gatherDestination(dst, dims, d.n)
	// Drain even on error so the other ranks' barrier is released.
	for i := 0; i < c.Size(); i++ {
		m := <-c.hub.gat
		if err == nil {
			copyBox(dst.Layout(), dst.DataOrNil(), grid.Bounds3D(m.extent), m.data)
		}
	}
	c.Barrier()
	return err
}

// Run launches fn on every rank of the partition in its own goroutine and
// waits for all of them; the returned error is the first non-nil error by
// rank order. This is the `mpirun` of the package, and like one it starts
// the ranks on different CPUs (place.Spread: rank r, r CPUs on from the
// caller's) and keeps them apart (place.Group).
func Run(part *grid.Partition, fn func(c *RankComm) error) error {
	return runRanks(newHub(decompose(part)), fn)
}

// Run3D is Run over a 3D partition.
func Run3D(part3 *grid.Partition3D, fn func(c *RankComm) error) error {
	return runRanks(newHub(decompose3D(part3)), fn)
}

// runRanks runs fn on every rank of h, as Run and Run3D do. The ranks
// beside the caller's own thread are claimed on the host's CPUs while
// they run.
func runRanks(h *Hub, fn func(c *RankComm) error) error {
	n := h.Ranks()
	defer place.Claim(n - 1)()
	h.apart = place.NewGroup(n)
	h.coll.apart = h.apart
	errs := make([]error, n)
	var wg sync.WaitGroup
	cpu := place.Current()
	for r := 0; r < n; r++ {
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

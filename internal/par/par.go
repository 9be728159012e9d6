// Package par provides the node-level data-parallel execution substrate:
// the role OpenMP worksharing (and a CUDA thread grid) plays in the
// original TeaLeaf. Kernels are expressed as functions over a half-open
// row range; the pool splits the range into contiguous blocks, one per
// worker, mirroring an OpenMP static schedule so each worker touches a
// contiguous, cache-friendly band of the grid.
//
// Pools come in two flavours. NewPool builds a persistent worker team:
// long-lived goroutines parked on per-worker channels, so For/ForReduce
// dispatch with two channel operations per worker instead of a goroutine
// spawn — the same reuse an OpenMP runtime gets from its thread team.
// NewForkPool preserves the original fork-per-call behaviour for
// comparison benchmarks and callers that cannot tolerate resident
// goroutines.
//
// The pool is explicit rather than implicit (no package-level state) so
// that distributed runs can give each simulated rank its own thread team,
// exactly like `OMP_NUM_THREADS` per MPI rank in the paper's hybrid runs.
package par

import (
	"runtime"
	"sync"

	"tealeaf/internal/place"
)

// Pool is a team of workers for data-parallel loops. The zero value is not
// usable; construct with NewPool or NewForkPool. A Pool with one worker
// executes inline with no synchronisation overhead.
type Pool struct {
	workers int
	// minGrain is the smallest number of iterations worth forking for.
	// Below it the loop runs inline: dispatching a few rows to workers
	// costs more than the rows themselves (the same trade-off as an
	// OpenMP `if` clause).
	minGrain int
	// team is the persistent worker set; nil selects fork-per-call mode.
	team *team
	// hold keeps the garbage-collection backstop from stopping the team
	// while any Pool copy (WithGrain shares the team) is still reachable:
	// the AddCleanup in NewPool is attached to this handle, not to the
	// team itself (which the parked workers always reference).
	hold *teamRef
	// tx, ty, tz are the tile edge lengths the ForTiles/ForTilesReduceN
	// schedulers decompose iteration boxes into, and tiled selects the
	// tiled schedule at all (see WithTiles). An untiled pool degenerates
	// to the legacy one-band-per-worker split along the outermost axis.
	tx, ty, tz int
	tiled      bool
}

// teamRef is the reachability proxy for a shared worker team; see
// Pool.hold.
type teamRef struct{ t *team }

// DefaultGrain is the default minimum loop length that will be split
// across workers.
const DefaultGrain = 64

// NewPool returns a persistent-team pool with the given worker count;
// workers <= 0 selects GOMAXPROCS. The team's goroutines stay parked
// between calls and exit when Close is called or when the pool is
// garbage-collected.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, minGrain: DefaultGrain}
	if workers > 1 {
		p.team = newTeam(workers)
		p.hold = &teamRef{t: p.team}
		// Backstop for pools dropped without Close (per-rank pools in
		// distributed runs): stop the parked workers once every Pool
		// sharing the team has become unreachable. The workers only
		// reference the inner team, so they never keep the handle alive.
		runtime.AddCleanup(p.hold, func(t *team) { t.stop() }, p.team)
	}
	return p
}

// NewForkPool returns a pool with the seed's original behaviour: fresh
// goroutines forked for every parallel region. It exists for A/B
// benchmarks against the persistent team and for short-lived pools where
// resident goroutines are unwanted.
func NewForkPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, minGrain: DefaultGrain}
}

// Serial is a single-worker pool that always executes inline.
var Serial = &Pool{workers: 1, minGrain: DefaultGrain}

// WithGrain returns a copy of the pool with a different minimum grain.
// The copy shares the original's worker team.
func (p *Pool) WithGrain(grain int) *Pool {
	if grain < 1 {
		grain = 1
	}
	return &Pool{workers: p.workers, minGrain: grain, team: p.team, hold: p.hold,
		tx: p.tx, ty: p.ty, tz: p.tz, tiled: p.tiled}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// Persistent reports whether the pool runs a resident worker team.
func (p *Pool) Persistent() bool { return p.team != nil }

// Close stops the persistent worker team, if any. The pool remains usable
// afterwards: parallel regions fall back to fork-per-call. Close is
// idempotent and safe to call concurrently.
func (p *Pool) Close() {
	if p.team != nil {
		p.team.stop()
	}
}

// blocks computes the number of blocks to split [lo,hi) into.
func (p *Pool) blocks(lo, hi int) int {
	n := hi - lo
	if p.workers <= 1 || n < p.minGrain {
		return 1
	}
	w := p.workers
	if w > n {
		w = n
	}
	return w
}

// team is a set of long-lived worker goroutines parked on per-worker job
// channels. Dispatch is epoch-style: the caller hands every worker the
// same job descriptor (sharing one WaitGroup as the join barrier), runs
// block 0 itself, and waits. A mutex serialises dispatches so concurrent
// callers (multiple ranks sharing a team) stay correct, if serialised.
type team struct {
	mu       sync.Mutex
	work     []chan job // one channel per helper worker (team size - 1)
	quit     chan struct{}
	stopOnce sync.Once
	// apart keeps a helper's thread off the dispatcher's CPU (member 0)
	// and off lower-numbered helpers': with two of them on one CPU a
	// region's blocks run one after the other, and where the kernel does
	// not balance threads nothing else would ever separate them.
	apart *place.Group
}

// job is one parallel region: run computes the block for a worker id and
// wg is the join barrier.
type job struct {
	run func(id int)
	wg  *sync.WaitGroup
}

func newTeam(workers int) *team {
	t := &team{
		work:  make([]chan job, workers-1),
		quit:  make(chan struct{}),
		apart: place.NewGroup(workers),
	}
	for i := range t.work {
		t.work[i] = make(chan job, 1)
		go t.worker(i)
	}
	return t
}

func (t *team) worker(i int) {
	for {
		select {
		case j := <-t.work[i]:
			t.apart.Check(i + 1)
			j.run(i + 1) // id 0 is the dispatching caller
			j.wg.Done()
		case <-t.quit:
			return
		}
	}
}

// stop shuts the team down. Taking the mutex serialises it with any
// in-flight dispatch, so workers never exit with a job still queued.
func (t *team) stop() {
	t.stopOnce.Do(func() {
		t.mu.Lock()
		close(t.quit)
		t.mu.Unlock()
	})
}

// stopped reports whether the team has been shut down.
func (t *team) stopped() bool {
	select {
	case <-t.quit:
		return true
	default:
		return false
	}
}

// dispatch runs run(id) for id in [0, nb) across the team (block 0 on the
// caller) and returns true when all blocks are done. nb must be ≤ team
// size. It returns false without running anything if the team has been
// stopped — the check happens under the dispatch mutex, so a concurrent
// stop can never strand a queued job.
func (t *team) dispatch(nb int, run func(id int)) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped() {
		return false
	}
	var wg sync.WaitGroup
	wg.Add(nb - 1)
	j := job{run: run, wg: &wg}
	t.apart.Check(0)
	for i := 0; i < nb-1; i++ {
		t.work[i] <- j
	}
	run(0)
	wg.Wait()
	return true
}

// region runs run(id) for nb blocks using the persistent team when
// available (and alive), forking goroutines otherwise.
func (p *Pool) region(nb int, run func(id int)) {
	if p.team != nil && p.team.dispatch(nb, run) {
		return
	}
	var wg sync.WaitGroup
	wg.Add(nb - 1)
	for b := 1; b < nb; b++ {
		go func(id int) {
			defer wg.Done()
			run(id)
		}(b)
	}
	run(0)
	wg.Wait()
}

// For runs body over contiguous sub-ranges covering [lo, hi), one per
// worker. body must be safe to call concurrently on disjoint ranges.
// For returns when all workers have finished.
//
// Parallel regions on a persistent-team pool are NOT reentrant: body
// must not call For/ForReduce* on the same pool (the team's dispatch
// lock is held for the whole region, so a nested region would deadlock).
// Kernels never nest; use separate pools or NewForkPool if a future
// caller needs nesting.
func (p *Pool) For(lo, hi int, body func(lo, hi int)) {
	if hi <= lo {
		return
	}
	nb := p.blocks(lo, hi)
	if nb == 1 {
		body(lo, hi)
		return
	}
	n := hi - lo
	p.region(nb, func(id int) {
		body(lo+id*n/nb, lo+(id+1)*n/nb)
	})
}

// ForReduce runs body over contiguous sub-ranges covering [lo, hi) and
// returns the sum of the per-range partial results. The reduction order is
// deterministic (block index order) so repeated runs with the same worker
// count reproduce bit-identical sums — important for convergence tests.
func (p *Pool) ForReduce(lo, hi int, body func(lo, hi int) float64) float64 {
	if hi <= lo {
		return 0
	}
	nb := p.blocks(lo, hi)
	if nb == 1 {
		return body(lo, hi)
	}
	n := hi - lo
	partial := make([]float64, nb)
	p.region(nb, func(id int) {
		partial[id] = body(lo+id*n/nb, lo+(id+1)*n/nb)
	})
	var sum float64
	for _, v := range partial {
		sum += v
	}
	return sum
}

// ForReduce2 is ForReduce with two simultaneous sum reductions, used by the
// fused-dot-product solver variants (§VII of the paper proposes combining
// multiple dot products into a single communication/reduction step).
func (p *Pool) ForReduce2(lo, hi int, body func(lo, hi int) (float64, float64)) (float64, float64) {
	if hi <= lo {
		return 0, 0
	}
	nb := p.blocks(lo, hi)
	if nb == 1 {
		return body(lo, hi)
	}
	n := hi - lo
	pa := make([]float64, 2*nb)
	p.region(nb, func(id int) {
		pa[2*id], pa[2*id+1] = body(lo+id*n/nb, lo+(id+1)*n/nb)
	})
	var sa, sb float64
	for i := 0; i < nb; i++ {
		sa += pa[2*i]
		sb += pa[2*i+1]
	}
	return sa, sb
}

// ForReduceN runs body over contiguous sub-ranges covering [lo, hi) with k
// simultaneous sum reductions: body accumulates its k partial sums into
// acc (len k, zeroed). The k sums are returned in block-index order, so
// results are deterministic for a fixed worker count. This is the
// node-level half of the paper's §VII proposal — every dot product a
// fused solver iteration needs is produced by one pass and one barrier.
func (p *Pool) ForReduceN(k, lo, hi int, body func(lo, hi int, acc []float64)) []float64 {
	out := make([]float64, k)
	if hi <= lo || k == 0 {
		return out
	}
	nb := p.blocks(lo, hi)
	if nb == 1 {
		body(lo, hi, out)
		return out
	}
	n := hi - lo
	// Pad each worker's accumulator chunk to a cache line: bodies may
	// read-modify-write acc per element, and adjacent k-sized chunks
	// would otherwise false-share.
	stride := k
	if stride < 8 {
		stride = 8
	}
	partial := make([]float64, nb*stride)
	p.region(nb, func(id int) {
		body(lo+id*n/nb, lo+(id+1)*n/nb, partial[id*stride:id*stride+k:id*stride+k])
	})
	for b := 0; b < nb; b++ {
		for i := 0; i < k; i++ {
			out[i] += partial[b*stride+i]
		}
	}
	return out
}

// Package par provides the node-level data-parallel execution substrate:
// the role OpenMP worksharing (and a CUDA thread grid) plays in the
// original TeaLeaf. Kernels are expressed as functions over a half-open
// row range; the pool splits the range into contiguous blocks, one per
// worker, mirroring an OpenMP static schedule so each worker touches a
// contiguous, cache-friendly band of the grid.
//
// NewPool builds a persistent worker team: long-lived goroutines that
// wait for a region on per-worker channels, so a region costs one channel
// send per worker and one token back instead of a goroutine spawn — the
// same reuse an OpenMP runtime gets from its thread team. Like an OpenMP
// runtime, a waiting worker (and a dispatcher waiting for the join) spins
// for place.SpinWindow before it parks, while the run has a CPU per
// thread. A closed pool falls back to forking goroutines per region.
//
// The pool is explicit rather than implicit (no package-level state) so
// that distributed runs can give each simulated rank its own thread team,
// exactly like `OMP_NUM_THREADS` per MPI rank in the paper's hybrid runs.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tealeaf/internal/place"
)

// Pool is a team of workers for data-parallel loops. The zero value is not
// usable; construct with NewPool. A Pool with one worker
// executes inline with no synchronisation overhead.
type Pool struct {
	workers int
	// minGrain is the smallest number of iterations worth forking for.
	// Below it the loop runs inline: dispatching a few rows to workers
	// costs more than the rows themselves (the same trade-off as an
	// OpenMP `if` clause).
	minGrain int
	// team is the persistent worker set; nil on one-worker pools, which
	// always run inline.
	team *team
	// hold keeps the garbage-collection backstop from stopping the team
	// while any Pool copy (WithGrain shares the team) is still reachable:
	// the AddCleanup in NewPool is attached to this handle, not to the
	// team itself (which the parked workers always reference).
	hold *teamRef
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

// Serial is a single-worker pool that always executes inline.
var Serial = &Pool{workers: 1, minGrain: DefaultGrain}

// WithGrain returns a copy of the pool with a different minimum grain.
// The copy shares the original's worker team.
func (p *Pool) WithGrain(grain int) *Pool {
	if grain < 1 {
		grain = 1
	}
	return &Pool{workers: p.workers, minGrain: grain, team: p.team, hold: p.hold}
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

// team is a set of long-lived worker goroutines, each waiting for a token
// on its own channel. Dispatch is epoch-style: the caller stores the
// region in the team, hands every helper a token, runs block 0 itself and
// waits for the join — a count of helpers still running and one token
// back from the last of them, so a region allocates nothing. A mutex
// serialises dispatches so concurrent callers (multiple ranks sharing a
// team) stay correct, if serialised.
type team struct {
	mu       sync.Mutex
	work     []chan struct{} // one channel per helper worker (team size - 1)
	quit     chan struct{}
	stopping atomic.Bool // set just before quit closes
	stopOnce sync.Once
	// apart keeps a helper's thread off the dispatcher's CPU (member 0)
	// and off lower-numbered helpers': with two of them on one CPU a
	// region's blocks run one after the other, and where the kernel does
	// not balance threads nothing else would ever separate them.
	apart *place.Group
	// release gives back the helpers' claim on the host's CPUs.
	release func()

	// The region in flight: written under mu before the helpers' tokens
	// are sent, read by the helpers after they receive one.
	cur job
	// left counts the helpers still running cur; the one that takes it to
	// zero puts the join token on joined.
	left   atomic.Int32
	joined chan struct{}
}

// job is one parallel region: block id runs run(id), or, when body is
// set, body over the id-th of nb equal slices of [lo, lo+n) — For's form,
// which needs no closure of its own.
type job struct {
	run       func(id int)
	body      func(lo, hi int)
	lo, n, nb int
}

func (j *job) do(id int) {
	if j.body != nil {
		j.body(j.lo+id*j.n/j.nb, j.lo+(id+1)*j.n/j.nb)
		return
	}
	j.run(id)
}

func newTeam(workers int) *team {
	t := &team{
		work:    make([]chan struct{}, workers-1),
		quit:    make(chan struct{}),
		apart:   place.NewGroup(workers),
		release: place.Claim(workers - 1),
		joined:  make(chan struct{}, 1),
	}
	for i := range t.work {
		t.work[i] = make(chan struct{}, 1)
		go t.worker(i)
	}
	return t
}

func (t *team) worker(i int) {
	// A helper spins only between regions: before its first, its thread
	// may still share the creator's CPU (see apart), and nothing is
	// waiting for it yet.
	for ran := false; t.wait(i, ran); ran = true {
		t.apart.Check(i + 1)
		t.cur.do(i + 1) // id 0 is the dispatching caller
		if t.left.Add(-1) == 0 {
			t.joined <- struct{}{}
		}
	}
}

// wait blocks helper i until it has a region to run (true) or the team is
// stopping (false), spinning first if spin is set.
func (t *team) wait(i int, spin bool) bool {
	got := false
	if spin && place.Spin(func() bool {
		select {
		case <-t.work[i]:
			got = true
		default:
		}
		return got || t.stopping.Load()
	}) {
		return got
	}
	select {
	case <-t.work[i]:
		return true
	case <-t.quit:
		return false
	}
}

// stop shuts the team down. Taking the mutex serialises it with any
// in-flight dispatch, so workers never exit with a job still queued.
func (t *team) stop() {
	t.stopOnce.Do(func() {
		t.mu.Lock()
		t.stopping.Store(true)
		close(t.quit)
		t.mu.Unlock()
		t.release()
	})
}

// dispatch runs j's blocks [0, j.nb) across the team (block 0 on the
// caller) and returns true when all blocks are done. j.nb must be ≤ team
// size. It returns false without running anything if the team has been
// stopped — the check happens under the dispatch mutex, so a concurrent
// stop can never strand a queued job.
func (t *team) dispatch(j job) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopping.Load() {
		return false
	}
	t.cur = j
	t.left.Store(int32(j.nb - 1))
	t.apart.Check(0)
	for i := 0; i < j.nb-1; i++ {
		t.work[i] <- struct{}{}
	}
	t.cur.do(0)
	if !place.Spin(func() bool {
		select {
		case <-t.joined:
			return true
		default:
			return false
		}
	}) {
		<-t.joined
	}
	t.cur = job{} // let the region's closures go
	return true
}

// region runs run(id) for nb blocks.
func (p *Pool) region(nb int, run func(id int)) { p.launch(job{nb: nb, run: run}) }

// launch runs j's blocks using the persistent team when available (and
// alive), forking goroutines otherwise.
func (p *Pool) launch(j job) {
	if j.nb == 1 {
		j.do(0)
		return
	}
	if p.team != nil && p.team.dispatch(j) {
		return
	}
	fork(j)
}

// fork runs j's blocks on goroutines of their own.
func fork(j job) {
	var wg sync.WaitGroup
	wg.Add(j.nb - 1)
	for b := 1; b < j.nb; b++ {
		go func(id int) {
			defer wg.Done()
			j.do(id)
		}(b)
	}
	j.do(0)
	wg.Wait()
}

// For runs body over contiguous sub-ranges covering [lo, hi), one per
// worker. body must be safe to call concurrently on disjoint ranges.
// For returns when all workers have finished.
//
// Parallel regions on a persistent-team pool are NOT reentrant: body
// must not call For/ForReduce* on the same pool (the team's dispatch
// lock is held for the whole region, so a nested region would deadlock).
// Kernels never nest; use separate pools if a future caller needs
// nesting.
func (p *Pool) For(lo, hi int, body func(lo, hi int)) {
	if hi <= lo {
		return
	}
	nb := p.blocks(lo, hi)
	if nb == 1 {
		body(lo, hi)
		return
	}
	p.launch(job{body: body, lo: lo, n: hi - lo, nb: nb})
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
	sums := newBandSums(k, nb)
	p.region(nb, func(id int) {
		body(lo+id*n/nb, lo+(id+1)*n/nb, sums.acc(id))
	})
	sums.fold(out)
	return out
}

// bandSums is the partial table of a k-sum reduction over nb bands: one
// zeroed acc per band, each padded to a cache line (bodies may
// read-modify-write acc per element, and adjacent k-sized chunks would
// otherwise false-share). ForReduceN and ForBandsReduceN both fold it,
// in band order.
type bandSums struct {
	buf       []float64
	k, stride int
}

func newBandSums(k, nb int) bandSums {
	stride := max(k, 8)
	return bandSums{buf: make([]float64, nb*stride), k: k, stride: stride}
}

// acc returns band id's accumulator.
func (s bandSums) acc(id int) []float64 {
	o := id * s.stride
	return s.buf[o : o+s.k : o+s.k]
}

// fold adds the bands' partials into out, band 0 first.
func (s bandSums) fold(out []float64) {
	for o := 0; o < len(s.buf); o += s.stride {
		for i := 0; i < s.k; i++ {
			out[i] += s.buf[o+i]
		}
	}
}

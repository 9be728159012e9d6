package main

import (
	"math/rand"

	"tealeaf/internal/deck"
	"tealeaf/internal/problem"
)

// maxThreads is the thread budget of every workload: ranks × workers
// never exceeds it, and GOMAXPROCS is pinned to it so a host with more
// cores (or a container quota Go cannot see) measures the same program.
const maxThreads = 2

// workload is one row of the benchmark: a deck generator plus the rank
// and thread layout it runs on. Meshes, step counts and layouts are
// fixed here on purpose — the flags select and repeat workloads, they
// never reshape them.
type workload struct {
	Name    string
	Why     string
	Backend string // "serial", "hub" or "tcp"
	Ranks   int    // the mesh is cut along x into this many sub-domains
	Workers int    // threads per rank
	Mesh    int    // cells per side
	Steps   int    // time steps per rep
	// build returns the canonical deck at the given mesh; jitter perturbs
	// it from the run's seed.
	build  func(mesh int) *deck.Deck
	jitter func(d *deck.Deck, f func() float64)
}

// workloads is the fixed benchmark table. Step counts are sized so one
// cold rep (process start, set-up, solve, checks) takes about two
// seconds on a 2-core box and five or more reps fit in one run; where
// that forced a cut it was steps (and, for the two 1024² CG rows, the
// deck's time step), never the mesh or the rank/worker layout.
var workloads = []workload{
	{
		Name:    "pipe2d_cg_1024_w1",
		Why:     "plain single-threaded CG on the 1024x1024 crooked pipe: the baseline every other row is read against",
		Backend: "serial", Ranks: 1, Workers: 1, Mesh: 1024, Steps: 1,
		build: pipeCG, jitter: jitterPipe,
	},
	{
		Name:    "pipe2d_cg_1024_w2",
		Why:     "same deck on 2 workers: bandwidth-bound fused sweeps through par, no messages; kernel and pool work shows here",
		Backend: "serial", Ranks: 1, Workers: 2, Mesh: 1024, Steps: 1,
		build: pipeCG, jitter: jitterPipe,
	},
	{
		Name:    "pipe2d_cg_256_tcp2",
		Why:     "256x256 pipe on 2 TCP loopback ranks: latency-bound, one reduction and one exchange per ~0.2 ms sweep; comm work shows here",
		Backend: "tcp", Ranks: 2, Workers: 1, Mesh: 256, Steps: 40,
		build: func(mesh int) *deck.Deck {
			d := problem.CrookedPipeDeck(mesh, mesh)
			d.Solver = "cg"
			return d
		},
		jitter: jitterPipe,
	},
	{
		Name:    "pipe2d_ppcg_1024_hub2",
		Why:     "PPCG with depth-4 matrix powers on 2 hub ranks: few reductions, few large halo slabs, redundant cells in the Chebyshev inner loop",
		Backend: "hub", Ranks: 2, Workers: 1, Mesh: 1024, Steps: 1,
		build: func(mesh int) *deck.Deck {
			d := problem.CrookedPipeDeck(mesh, mesh) // PPCG is the deck's own solver
			d.HaloDepth = 4
			return d
		},
		jitter: jitterPipe,
	},
	{
		Name:    "bm3d_cg_128_w2",
		Why:     "128^3 two-state benchmark with CG on 2 workers: the only row through the 3D stencil, kernels and instance",
		Backend: "serial", Ranks: 1, Workers: 2, Mesh: 128, Steps: 1,
		build: func(mesh int) *deck.Deck {
			d := problem.BenchmarkDeck3D(mesh)
			d.Solver = "cg"
			return d
		},
		jitter: jitterBox,
	},
	{
		Name:    "stiff2d_defl_512_w2",
		Why:     "stiff 512x512 deck with 8x8 subdomain deflation on 2 workers: projector and coarse solve every iteration, heavy coarse assembly in set-up",
		Backend: "serial", Ranks: 1, Workers: 2, Mesh: 512, Steps: 1,
		build: func(mesh int) *deck.Deck {
			d := problem.StiffDeck(mesh)
			d.UseDeflation = true
			d.DeflationBlocks = 8
			return d
		},
		jitter: jitterBox,
	},
}

// pipeCG is the crooked pipe under plain CG. The deck's time step is
// shortened from 0.04 to 0.01 so one step is ~300 iterations (~2 s
// single-threaded) instead of ~570: the run budget needs five cold reps
// per run, and iterations are the one thing that can be cut without
// shrinking the out-of-cache 1024² working set.
func pipeCG(mesh int) *deck.Deck {
	d := problem.CrookedPipeDeck(mesh, mesh)
	d.Solver = "cg"
	d.InitialTimestep = 0.01
	return d
}

// jitterPipe moves the crooked pipe's two kinks and its inlet elevation
// and scales the source energy, each by the factor f() ∈ [0.95, 1.05].
// The states are rebuilt with problem.CrookedPipeDeck's geometry.
func jitterPipe(d *deck.Deck, f func() float64) {
	const size = problem.DomainSize
	w := problem.PipeWidth / 2
	x1, x2 := 0.3*size*f(), 0.7*size*f()
	inY, midY := 0.7*size*f(), 0.3*size
	src := problem.SourceEnergy * f()
	rect := func(idx int, en, xmin, xmax, ymin, ymax float64) deck.State {
		return deck.State{
			Index: idx, Density: problem.PipeDensity, Energy: en, Geometry: deck.GeomRectangle,
			XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax,
		}
	}
	d.States = []deck.State{
		{Index: 1, Density: problem.WallDensity, Energy: problem.ColdEnergy},
		rect(2, problem.ColdEnergy, 0, x1+w, inY-w, inY+w),
		rect(3, problem.ColdEnergy, x1-w, x1+w, midY-w, inY+w),
		rect(4, problem.ColdEnergy, x1-w, x2+w, midY-w, midY+w),
		rect(5, problem.ColdEnergy, x2-w, x2+w, midY-w, inY+w),
		rect(6, problem.ColdEnergy, x2-w, size, inY-w, inY+w),
		rect(7, src, 0, 0.05*size, inY-w, inY+w),
	}
}

// jitterBox scales the hot region's energy by f() — the two-state decks'
// analogue of the pipe's source energy. Their geometry stays put: moving
// a box edge across a cell centre changes the iteration count by ±5 %,
// which would swamp every timing bound with seed noise.
func jitterBox(d *deck.Deck, f func() float64) {
	d.States[1].Energy *= f()
}

// deckText renders the workload's deck for a seed as tea.in text — the
// only thing the program under test receives. Seed 0 is the canonical
// deck; any other seed jitters it by at most 5 %.
func (w workload) deckText(seed int64) string {
	d := w.build(w.Mesh)
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		w.jitter(d, func() float64 { return 1 + 0.05*(2*rng.Float64()-1) })
	}
	return d.Format()
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

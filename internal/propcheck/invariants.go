package propcheck

import (
	"fmt"
	"math"

	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

// Checker tolerances. The exact-equality checker (backend at 2 ranks)
// takes no tolerance at all: that contract is bit-identity. The rest are
// relative to the final energy field's magnitude, matching the golden
// tests that established them.
// TolRank and TolHalo are floors, not the whole tolerance: the rank and
// halo checkers compare legs whose iterations follow different FP
// trajectories, so each stops with a different O(eps·κ) unconverged
// error component and the fields can only be expected to agree to a
// multiple of the solve tolerance (see legTol). The floors carry 2×
// slack over the golden 1e-10 contract because fuzz decks at
// eps=1e-12..1e-11 can flip a stop decision by ±1 iteration between
// decompositions and land the fields a final-update apart — observed up
// to 1.4e-10 relative on passing-grade decks.
// The conservation gate has no constant: checkConserve compares the
// drift with the residuals the solves stopped at, to rounding.
const (
	TolEngine = 1e-8  // CG engine vs the textbook PCG oracle (solver tests)
	TolRank   = 2e-10 // floor: serial vs 2- and 4-rank decompositions
	TolHalo   = 2e-10 // floor: halo depth 2,3 vs 1
)

// legTol is the tolerance for comparing two converged-but-independent
// solve trajectories of the same deck: the larger of the contract floor
// and mult× the deck's stop tolerance, scaled by the field magnitude.
// The goldens pin 1e-10 at eps=1e-9 on decks with benign spectra;
// across arbitrary decks the stop error is O(eps·κ) with a
// leg-dependent direction, so the spread scales with eps. Rank, halo
// and worker legs share the recurrence structure and differ only in
// summation order; engine legs run structurally different recurrences
// with nearly independent stop errors (observed ≤ ~85·eps). Every
// checker uses mult 150: summation order alone can move a loose-eps
// stop by a few iterations — two 3D seed-1 decks at eps 1e-9 landed
// 42–45·eps apart on 2 workers (88 vs 91 and 81 vs 80 iterations), a
// gap that shrinks with eps. The bound stays a sharp invariant — a
// kernel bug perturbs fields at O(1)·Δ, decades above it.
func legTol(floor, mult float64, d *deck.Deck, base *runOut) float64 {
	t := floor
	if e := mult * d.Eps; e > t {
		t = e
	}
	return t * maxAbs(base)
}

// runOut is one solve leg's observables: the final energy field (2D or
// 3D), the internal energy before and after stepping, the base leg's
// energy book (see checkConserve) and the total outer-iteration count.
type runOut struct {
	e2           *grid.Field2D
	e3           *grid.Field3D
	ie0, ie1     float64
	resid, slack float64
	iters        int
}

// harness runs one deck's checker legs, caching the runs that several
// checkers share (the base serial solve and the 2×1 Hub solve).
type harness struct {
	d       *deck.Deck
	cfg     Config
	base    *runOut
	baseErr error
	hub2    *runOut
	hub2Err error
}

func newHarness(d *deck.Deck, cfg Config) *harness {
	return &harness{d: d, cfg: cfg}
}

// runSerial solves d in-process with the given worker count. A
// multi-worker pool has grain 1: the fuzz meshes are below the default grain and would
// otherwise never split. The leg name feeds the Tamper fault-injection
// hook; the base leg also keeps the energy book checkConserve reads.
func (h *harness) runSerial(d *deck.Deck, leg string, workers int) (*runOut, error) {
	pool := par.Serial
	if workers > 1 {
		pool = par.NewPool(workers).WithGrain(1)
		defer pool.Close()
	}
	if d.Dims == 3 {
		inst, err := core.NewSerial3D(d, pool)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", leg, err)
		}
		out := &runOut{ie0: inst.Summarise().InternalEnergy}
		var bk *book
		if leg == "base" {
			bk = book3D(inst)
		}
		if err := out.run(d, inst.Run, bk); err != nil {
			return nil, fmt.Errorf("%s: %w", leg, err)
		}
		out.e3 = inst.Energy
		return out, nil
	}
	inst, err := core.NewSerial(d, pool)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", leg, err)
	}
	out := &runOut{ie0: inst.Summarise().InternalEnergy}
	var bk *book
	if leg == "base" {
		bk = book2D(inst)
	}
	if err := out.run(d, inst.Run, bk); err != nil {
		return nil, fmt.Errorf("%s: %w", leg, err)
	}
	if h.cfg.Tamper != nil {
		h.cfg.Tamper(leg, inst.Energy)
		// Re-summarise so a tampered field also perturbs the conserved
		// quantity — a fault injected into the base leg must trip the
		// conservation checker, not just the field comparisons.
		out.ie1 = inst.Summarise().InternalEnergy
	}
	out.e2 = inst.Energy
	return out, nil
}

// run solves the deck's steps through run, recording the final internal
// energy and the iterations. With no book it makes one call; with one
// (the base leg) it steps one at a time, so the book can read each
// step's right-hand side before the step and its residual after it.
func (o *runOut) run(d *deck.Deck, run func(int) (core.Summary, error), bk *book) error {
	if bk == nil {
		sum, err := run(d.Steps())
		o.ie1, o.iters = sum.InternalEnergy, sum.TotalIterations
		return err
	}
	for s := 0; s < d.Steps(); s++ {
		bk.open()
		sum, err := run(1)
		if err != nil {
			return err
		}
		t := bk.close()
		o.resid += bk.vol * t.sr
		o.slack += 0x1p-53 * bk.vol * (16*t.local + float64(bk.cells)*t.global)
		o.ie1 = sum.InternalEnergy
		o.iters += sum.TotalIterations
	}
	return nil
}

// book keeps the base leg's energy balance (see checkConserve): open
// records a step's right-hand side b = ρ·e, close tallies the step's
// residual r = b − A·u at the solve's output u.
type book struct {
	vol   float64
	cells int
	open  func()
	close func() tally
}

// tally is one step's sums over the cells: Σr, and the two magnitudes
// that bound its rounding — local, Σ(|b| + |A|·|u|), against which each
// rᵢ rounds, and global, Σ(|b| + |u| + |r|), the terms of the N-term sums
// of r and of the energy. A's off-diagonals are −K ≤ 0, so |A|·|u| summed
// over the cells is Σ(2d − 1)·|u|, d the diagonal.
type tally struct{ sr, local, global float64 }

func (t *tally) add(b, u, d, r float64) {
	t.sr += r
	t.local += math.Abs(b) + (2*d-1)*math.Abs(u)
	t.global += math.Abs(b) + math.Abs(u) + math.Abs(r)
}

func book2D(inst *core.Instance) *book {
	g := inst.Grid
	in := g.Interior()
	b, r, diag := grid.NewField2D(g), grid.NewField2D(g), grid.NewField2D(g)
	return &book{
		vol:   g.CellArea(),
		cells: g.Cells(),
		open:  func() { problem.EnergyToU(inst.Density, inst.Energy, b) },
		close: func() (t tally) {
			inst.Op.Residual(inst.Pool, in, inst.U, b, r)
			inst.Op.Diagonal(inst.Pool, in, diag)
			for k := 0; k < g.NY; k++ {
				for j := 0; j < g.NX; j++ {
					i := g.Index(j, k)
					t.add(b.Data[i], inst.U.Data[i], diag.Data[i], r.Data[i])
				}
			}
			return t
		},
	}
}

func book3D(inst *core.Instance3D) *book {
	g := inst.Grid
	in := g.Interior()
	b, r, diag := grid.NewField3D(g), grid.NewField3D(g), grid.NewField3D(g)
	return &book{
		vol:   g.CellVolume(),
		cells: g.Cells(),
		open:  func() { problem.EnergyToU3D(inst.Density, inst.Energy, b) },
		close: func() (t tally) {
			inst.Op.Residual(inst.Pool, in, inst.U, b, r)
			inst.Op.Diagonal(inst.Pool, in, diag)
			for k := 0; k < g.NZ; k++ {
				for j := 0; j < g.NY; j++ {
					for i := 0; i < g.NX; i++ {
						x := g.Index(i, j, k)
						t.add(b.Data[x], inst.U.Data[x], diag.Data[x], r.Data[x])
					}
				}
			}
			return t
		},
	}
}

// runDist solves d on a px×py(×pz) rank decomposition over the given
// backend with one worker per rank, returning the gathered global field.
func (h *harness) runDist(d *deck.Deck, leg string, px, py, pz int, backend core.Backend) (*runOut, error) {
	if d.Dims == 3 {
		res, err := core.RunDistributed3D(d, px, py, pz, d.Steps(), 1, core.WithBackend(backend))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", leg, err)
		}
		return &runOut{e3: res.Energy, ie1: res.Summary.InternalEnergy, iters: res.Summary.TotalIterations}, nil
	}
	res, err := core.RunDistributed(d, px, py, d.Steps(), 1, core.WithBackend(backend))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", leg, err)
	}
	if h.cfg.Tamper != nil {
		h.cfg.Tamper(leg, res.Energy)
	}
	return &runOut{e2: res.Energy, ie1: res.Summary.InternalEnergy, iters: res.Summary.TotalIterations}, nil
}

// baseRun lazily computes and caches the plain serial solve of the deck
// exactly as written, shared by the finite, conserve, rank and worker
// checkers and by the report's iteration/drift columns.
func (h *harness) baseRun() (*runOut, error) {
	if h.base == nil && h.baseErr == nil {
		h.base, h.baseErr = h.runSerial(h.d, "base", 1)
	}
	return h.base, h.baseErr
}

// hub2Run lazily computes and caches the 2×1(×1) Hub-backend solve,
// shared by the rank-invariance and backend checkers.
func (h *harness) hub2Run() (*runOut, error) {
	if h.hub2 == nil && h.hub2Err == nil {
		h.hub2, h.hub2Err = h.runDist(h.d, "hub2", 2, 1, 1, core.BackendHub)
	}
	return h.hub2, h.hub2Err
}

// maxAbs returns the final field's infinity norm, the scale the relative
// tolerances are anchored to (floored at 1 so near-zero fields do not
// turn roundoff into failures).
func maxAbs(o *runOut) float64 {
	m := 1.0
	if o.e3 != nil {
		g := o.e3.Grid
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					if v := math.Abs(o.e3.At(i, j, k)); v > m {
						m = v
					}
				}
			}
		}
		return m
	}
	b := o.e2.Grid.Interior()
	for k := b.Y0; k < b.Y1; k++ {
		for j := b.X0; j < b.X1; j++ {
			if v := math.Abs(o.e2.At(j, k)); v > m {
				m = v
			}
		}
	}
	return m
}

func maxDiff(a, b *runOut) float64 {
	if a.e3 != nil {
		return a.e3.MaxDiff(b.e3)
	}
	return a.e2.MaxDiff(b.e2)
}

// bitDiff counts interior cells whose values differ in any bit, and
// returns the largest absolute difference seen. NaNs compare unequal to
// themselves but the finite checker runs first, so a NaN here is already
// a reported failure.
func bitDiff(a, b *runOut) (cells int, worst float64) {
	if a.e3 != nil {
		g := a.e3.Grid
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					if va, vb := a.e3.At(i, j, k), b.e3.At(i, j, k); va != vb {
						cells++
						if d := math.Abs(va - vb); d > worst {
							worst = d
						}
					}
				}
			}
		}
		return cells, worst
	}
	bd := a.e2.Grid.Interior()
	for k := bd.Y0; k < bd.Y1; k++ {
		for j := bd.X0; j < bd.X1; j++ {
			if va, vb := a.e2.At(j, k), b.e2.At(j, k); va != vb {
				cells++
				if d := math.Abs(va - vb); d > worst {
					worst = d
				}
			}
		}
	}
	return cells, worst
}

// relDrift is the run's relative internal-energy drift; relImbalance
// is the part of it the solves' residuals do not account for, and
// relSlack the rounding allowed in that comparison, on the same scale.
func relDrift(o *runOut) float64 { return math.Abs(o.ie1-o.ie0) / ieScale(o) }

func relImbalance(o *runOut) float64 { return math.Abs(o.ie1-o.ie0+o.resid) / ieScale(o) }

func relSlack(o *runOut) float64 { return o.slack / ieScale(o) }

func ieScale(o *runOut) float64 {
	if o.ie0 == 0 {
		return 1
	}
	return math.Abs(o.ie0)
}

type checkerDef struct {
	name    string
	applies func(d *deck.Deck) bool
	run     func(h *harness) error
}

// checkers is the fixed-order invariant suite; CheckDeck stops at the
// first failure so the shrinker has a single predicate to preserve.
var checkers = []checkerDef{
	{name: "finite", run: checkFinite},
	{name: "conserve", run: checkConserve},
	{name: "rank-invariance", run: checkRankInvariance},
	{name: "backend-bit-equality", run: checkBackendBits},
	{name: "workers", run: checkWorkers},
	{name: "halo-depth", applies: depthApplies, run: checkHaloDepth},
}

// depthApplies gates the legs that deepen the halo: jac_block is
// deep-halo incompatible.
func depthApplies(d *deck.Deck) bool { return d.Precond != "jac_block" }

// checkFinite: every interior cell of the final energy field is finite.
func checkFinite(h *harness) error {
	base, err := h.baseRun()
	if err != nil {
		return err
	}
	bad := 0
	scan := func(v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad++
		}
	}
	if base.e3 != nil {
		g := base.e3.Grid
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					scan(base.e3.At(i, j, k))
				}
			}
		}
	} else {
		b := base.e2.Grid.Interior()
		for k := b.Y0; k < b.Y1; k++ {
			for j := b.X0; j < b.X1; j++ {
				scan(base.e2.At(j, k))
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("final energy field has %d non-finite cells", bad)
	}
	return nil
}

// checkConserve: with reflecting (zero-flux) boundaries the implicit
// step's fluxes telescope — every column of A = I + Δt·L sums to 1 — so
// Σ(A·u) = Σu for any u. A step solves A·u = b for b = ρ·e and stops at
// some u with residual r = b − A·u, so Σu − Σb = −Σr exactly: the
// internal energy vol·Σu moves by exactly −vol·Σr, whatever tolerance the
// solve stopped at. The base leg computes r after every step (its book),
// and the checker requires
//
//	|IE₁ − IE₀ + vol·ΣΣr| ≤ Σ_steps u·vol·(16·Σ(|b| + |A|·|u|) + N·Σ(|b| + |u| + |r|))
//
// (u the unit roundoff, N the cell count): a first-order bound on the
// rounding of each rᵢ (at most 16 operations against |bᵢ| + (|A|·|u|)ᵢ)
// and of the N-term sums of r and of the energy, which also covers the
// u ↔ ρ·e conversions between steps. An operator that does not conserve
// (a face coefficient that does not pair up, a boundary face left open)
// breaks Σ(A·u) = Σu and shows here at any size above rounding; so does
// an error in the energy bookkeeping, or a fault that changes the field
// after the solve. How far the solve converged is not this checker's
// business: the engine, rank and halo checkers compare it.
func checkConserve(h *harness) error {
	base, err := h.baseRun()
	if err != nil {
		return err
	}
	if imb, slack := relImbalance(base), relSlack(base); imb > slack {
		return fmt.Errorf("internal energy drifted by %.3e relative (%g -> %g), %.3e more than the residuals account for (rounding allows %.3e)",
			relDrift(base), base.ie0, base.ie1, imb, slack)
	}
	return nil
}

// checkRankInvariance: 2- and 4-rank Hub decompositions reproduce the
// serial answer to TolRank relative.
func checkRankInvariance(h *harness) error {
	base, err := h.baseRun()
	if err != nil {
		return err
	}
	r2, err := h.hub2Run()
	if err != nil {
		return err
	}
	r4, err := h.runDist(h.d, "rank2x2", 2, 2, 1, core.BackendHub)
	if err != nil {
		return err
	}
	tol := legTol(TolRank, 150, h.d, base)
	if diff := maxDiff(base, r2); diff > tol {
		return fmt.Errorf("serial vs 2-rank differ by %.3e (tol %.3e)", diff, tol)
	}
	if diff := maxDiff(base, r4); diff > tol {
		return fmt.Errorf("serial vs 4-rank differ by %.3e (tol %.3e)", diff, tol)
	}
	return nil
}

// checkBackendBits: at exactly two ranks the Hub's arrival-order
// reduction sums two partials, and two-term FP addition is commutative —
// so Hub and TCP must agree BIT FOR BIT. (At ≥3 ranks association order
// differs and only the 1e-10 golden contract holds; that regime is
// covered by checkRankInvariance.)
func checkBackendBits(h *harness) error {
	hub, err := h.hub2Run()
	if err != nil {
		return err
	}
	tcp, err := h.runDist(h.d, "tcp2", 2, 1, 1, core.BackendTCP)
	if err != nil {
		return err
	}
	if cells, worst := bitDiff(hub, tcp); cells > 0 {
		return fmt.Errorf("hub vs tcp at 2 ranks differ in %d cells (worst %.3e); expected bit-identical", cells, worst)
	}
	return nil
}

// checkWorkers: the band split changes only the order the dots are
// summed in, as a rank decomposition does — so 2- and 4-worker runs
// reproduce the 1-worker base to the rank legs' tolerance (see legTol).
// A depth-1 deck whose halo can deepen also runs the depth-2 cycle at 2
// workers (extended-bounds sweeps, ring updates and the fused CG pass's
// band cuts on a split pool), which a single rank keeps bit-identical
// to depth 1, so it is held to the same tolerance.
func checkWorkers(h *harness) error {
	base, err := h.baseRun()
	if err != nil {
		return err
	}
	tol := legTol(TolRank, 150, h.d, base)
	cmp := func(d *deck.Deck, leg string, workers int) error {
		out, err := h.runSerial(d, leg, workers)
		if err != nil {
			return err
		}
		if diff := maxDiff(base, out); diff > tol {
			return fmt.Errorf("1 vs %d workers (%s) differ by %.3e (tol %.3e)", workers, leg, diff, tol)
		}
		return nil
	}
	for _, workers := range []int{2, 4} {
		if err := cmp(h.d, fmt.Sprintf("workers-w%d", workers), workers); err != nil {
			return err
		}
	}
	if !depthApplies(h.d) || h.d.HaloDepth > 1 {
		return nil // no deep cycle possible, or the legs above already ran one
	}
	deep := Clone(h.d)
	deep.HaloDepth = 2
	return cmp(deep, "workers-d2-w2", 2)
}

// checkHaloDepth: the matrix-powers deep-halo machinery must not change
// the answer — depths 2 and 3 reproduce depth 1 to TolHalo relative.
// (jac_block is depth-incompatible and gated out via applies.)
func checkHaloDepth(h *harness) error {
	mk := func(depth int) *deck.Deck {
		c := Clone(h.d)
		c.HaloDepth = depth
		return c
	}
	d1, err := h.runSerial(mk(1), "halo1", 1)
	if err != nil {
		return err
	}
	d2, err := h.runSerial(mk(2), "halo2", 1)
	if err != nil {
		return err
	}
	d3, err := h.runSerial(mk(3), "halo3", 1)
	if err != nil {
		return err
	}
	tol := legTol(TolHalo, 150, h.d, d1)
	if diff := maxDiff(d1, d2); diff > tol {
		return fmt.Errorf("halo depth 2 vs 1 differ by %.3e (tol %.3e)", diff, tol)
	}
	if diff := maxDiff(d1, d3); diff > tol {
		return fmt.Errorf("halo depth 3 vs 1 differ by %.3e (tol %.3e)", diff, tol)
	}
	return nil
}

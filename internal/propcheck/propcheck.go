// Package propcheck is a property-based testing harness for the whole
// solver stack: a seeded, deterministic random-deck generator (gen.go)
// paired with an invariant-checker suite (invariants.go) that solves
// each generated deck across the repo's configuration axes and asserts
// the equivalence contracts PRs 1–8 established:
//
//   - finite:               every cell of the final energy field is finite
//   - conserve:             internal energy moves by exactly what the
//     solves' residuals account for, to rounding (reflecting boundaries
//     make the fluxes telescope exactly, so a step changes Σu by −Σr)
//   - rank-invariance:      1-, 2- and 4-rank decompositions agree to
//     2e-10 relative (2× the golden contract; see invariants.go on why
//     fuzz decks' tighter eps earns the slack)
//   - backend-bit-equality: Hub and TCP backends are BIT-IDENTICAL at two
//     ranks (with two ranks FP addition is commutative, so the Hub's
//     arrival-order sums cannot differ from TCP's fixed butterfly; at
//     three or more ranks only the 1e-10 golden contract holds)
//   - workers:              2- and 4-worker runs (and, for PPCG, a depth-2
//     run at 2 workers) agree with the 1-worker base to the rank legs'
//     tolerance
//   - halo-depth:           PPCG at tl_ppcg_halo_depth ∈ {1,2,3} agrees to
//     2e-10 relative (skipped for jac_block, which is depth-incompatible,
//     and for every other solver, which has no halo depth)
//
// The CG engine is checked against the textbook PCG loop, kept as a test
// oracle, by the solver package's tests (FuzzEngineMatchesClassic) over
// the same generator, at TolEngine with legTol's scaling.
//
// A failing deck is automatically shrunk (shrink.go) to a minimal
// reproducer — halve the mesh, drop regions, cut steps, strip options —
// that still fails the same checker, and printed as a ready-to-run deck
// string via deck.Format.
//
// The harness is wired into `teabench -exp fuzz` (-seed/-n/-fuzzout);
// tests inject faults through Config.Tamper to prove a broken kernel is
// detected and shrunk.
package propcheck

import (
	"fmt"
	"math/rand"

	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
)

// TamperFunc is the fault-injection hook: when set, every 2D checker leg
// hands its final energy field here (after the run, before comparisons)
// along with the leg's name — "base", "rank2x1",
// "rank2x2", "hub2", "tcp2", "workers-w2", "workers-w4",
// "workers-d2-w2", "halo1", "halo2", "halo3". Perturbing one leg simulates a
// kernel bug confined to that configuration; tests use it to demonstrate
// detection and shrinking without actually breaking a kernel.
type TamperFunc func(leg string, energy *grid.Field2D)

// Config controls a fuzzing run.
type Config struct {
	// Seed seeds the deck generator; same seed, same decks, same verdicts.
	Seed int64
	// N is the number of decks to generate and check.
	N int
	// Tamper, when non-nil, perturbs checker legs (see TamperFunc).
	Tamper TamperFunc
	// Log, when non-nil, receives one progress line per deck.
	Log func(format string, args ...any)
	// ShrinkBudget caps the number of candidate decks the shrinker may
	// solve per failure; 0 means the default (40).
	ShrinkBudget int
}

// Failure records one checker violation together with its reproducers.
type Failure struct {
	Checker        string `json:"checker"`
	Detail         string `json:"detail"`
	Deck           string `json:"deck"`
	Shrunk         string `json:"shrunk"`
	ShrinkAttempts int    `json:"shrink_attempts"`
}

// CaseResult is the per-deck record in the report.
type CaseResult struct {
	Index      int      `json:"index"`
	Dims       int      `json:"dims"`
	Mesh       string   `json:"mesh"`
	Solver     string   `json:"solver"`
	Axes       []string `json:"axes"`
	Steps      int      `json:"steps"`
	Iterations int      `json:"iterations"`
	Drift      float64  `json:"conservation_drift"`
	Imbalance  float64  `json:"conservation_imbalance"`
	Slack      float64  `json:"conservation_slack"`
	Checkers   []string `json:"checkers"`
	Failure    *Failure `json:"failure,omitempty"`
}

// Report is the whole run's outcome; teabench -exp fuzz -fuzzout
// serialises it.
type Report struct {
	Seed     int64        `json:"seed"`
	N        int          `json:"n"`
	Failures int          `json:"failures"`
	Cases    []CaseResult `json:"cases"`
}

// OK reports whether every deck passed every applicable checker.
func (r *Report) OK() bool { return r.Failures == 0 }

// Run generates cfg.N decks from cfg.Seed and checks each against the
// full invariant suite, shrinking any failure to a minimal reproducer.
func Run(cfg Config) *Report {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{Seed: cfg.Seed, N: cfg.N}
	for i := 0; i < cfg.N; i++ {
		d := Gen(rng)
		cr := CheckDeck(d, cfg)
		cr.Index = i
		if cr.Failure != nil {
			rep.Failures++
		}
		if cfg.Log != nil {
			verdict := "ok"
			if cr.Failure != nil {
				verdict = "FAIL " + cr.Failure.Checker
			}
			cfg.Log("deck %02d %dD %s %s steps=%d iters=%d drift=%.2e imbalance=%.2e/%.2e [%s] %s",
				i, cr.Dims, cr.Mesh, cr.Solver, cr.Steps, cr.Iterations, cr.Drift, cr.Imbalance, cr.Slack,
				axisString(cr.Axes), verdict)
		}
		rep.Cases = append(rep.Cases, cr)
	}
	return rep
}

// CheckDeck runs every applicable invariant checker against one deck.
// Checkers run in a fixed order and stop at the first failure, which is
// then shrunk with the same checker as the predicate.
func CheckDeck(d *deck.Deck, cfg Config) CaseResult {
	h := newHarness(d, cfg)
	cr := CaseResult{
		Dims:   d.Dims,
		Mesh:   meshString(d),
		Solver: d.Solver,
		Axes:   deckAxes(d),
		Steps:  d.Steps(),
	}
	for _, c := range checkers {
		if c.applies != nil && !c.applies(d) {
			continue
		}
		cr.Checkers = append(cr.Checkers, c.name)
		err := c.run(h)
		if err == nil {
			continue
		}
		cr.Failure = &Failure{Checker: c.name, Detail: err.Error(), Deck: d.Format()}
		budget := cfg.ShrinkBudget
		if budget <= 0 {
			budget = 40
		}
		shrunk, attempts := Shrink(d, func(cand *deck.Deck) bool {
			return c.run(newHarness(cand, cfg)) != nil
		}, budget)
		cr.Failure.Shrunk = shrunk.Format()
		cr.Failure.ShrinkAttempts = attempts
		break
	}
	if base, err := h.baseRun(); err == nil {
		cr.Iterations = base.iters
		cr.Drift = relDrift(base)
		cr.Imbalance = relImbalance(base)
		cr.Slack = relSlack(base)
	}
	return cr
}

func meshString(d *deck.Deck) string {
	if d.Dims == 3 {
		return fmt.Sprintf("%dx%dx%d", d.XCells, d.YCells, d.ZCells)
	}
	return fmt.Sprintf("%dx%d", d.XCells, d.YCells)
}

// deckAxes summarises the sampled configuration axes for the report.
func deckAxes(d *deck.Deck) []string {
	axes := []string{"precond=" + d.Precond, "coeff=" + d.Coefficient}
	if d.HaloDepth > 1 {
		axes = append(axes, fmt.Sprintf("halo=%d", d.HaloDepth))
	}
	if d.UseDeflation {
		axes = append(axes, fmt.Sprintf("deflation=%dx%d", d.DeflationBlocks, d.DeflationLevels))
	}
	return axes
}

func axisString(axes []string) string {
	s := ""
	for i, a := range axes {
		if i > 0 {
			s += " "
		}
		s += a
	}
	return s
}

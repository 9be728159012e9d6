package propcheck

import "tealeaf/internal/deck"

// shrinkMinCells is the mesh floor the shrinker will not halve below:
// small enough to be a trivially inspectable reproducer, large enough
// that every checker's 2×2 decomposition and deflation blocking still
// fit.
const shrinkMinCells = 6

// Clone returns a deep copy of d (the States slice is the only
// reference field). Shrink candidates and checker legs mutate clones so
// the original deck is never disturbed.
func Clone(d *deck.Deck) *deck.Deck {
	c := *d
	c.States = append([]deck.State(nil), d.States...)
	return &c
}

// shrinkStep is one candidate reduction. apply mutates the deck and
// reports whether it changed anything; inapplicable steps return false
// and cost nothing.
type shrinkStep struct {
	name  string
	apply func(d *deck.Deck) bool
}

// shrinkSteps is ordered biggest-win-first: mesh halvings and step cuts
// shrink solve cost geometrically, region drops simplify the physics,
// and the option strips leave the smallest config that still fails.
var shrinkSteps = []shrinkStep{
	{"halve-x", func(d *deck.Deck) bool {
		if d.XCells/2 < shrinkMinCells {
			return false
		}
		d.XCells /= 2
		return true
	}},
	{"halve-y", func(d *deck.Deck) bool {
		if d.YCells/2 < shrinkMinCells {
			return false
		}
		d.YCells /= 2
		return true
	}},
	{"halve-z", func(d *deck.Deck) bool {
		if d.Dims != 3 || d.ZCells/2 < shrinkMinCells {
			return false
		}
		d.ZCells /= 2
		return true
	}},
	{"one-step", func(d *deck.Deck) bool {
		if d.Steps() <= 1 {
			return false
		}
		d.EndStep = 1
		return true
	}},
	{"drop-region", func(d *deck.Deck) bool {
		if len(d.States) <= 1 {
			return false
		}
		d.States = d.States[:len(d.States)-1]
		return true
	}},
	{"no-deflation", func(d *deck.Deck) bool {
		if !d.UseDeflation {
			return false
		}
		d.UseDeflation = false
		return true
	}},
	{"precond-none", func(d *deck.Deck) bool {
		if d.Precond == "none" {
			return false
		}
		d.Precond = "none"
		return true
	}},
	// A deck above depth 1 is PPCG (the depth is its inner matrix powers),
	// and solver-cg's candidate is invalid until halo-1 has applied.
	{"halo-1", func(d *deck.Deck) bool {
		if d.HaloDepth <= 1 {
			return false
		}
		d.HaloDepth = 1
		return true
	}},
	{"solver-cg", func(d *deck.Deck) bool {
		if d.Solver == "cg" {
			return false
		}
		d.Solver = "cg"
		return true
	}},
}

// Shrink greedily minimises a failing deck: it repeatedly tries each
// reduction on a clone, keeps the clone whenever the deck still
// validates AND fails (per the caller's predicate — in practice "the
// same checker still rejects it"), and stops at a fixpoint or when
// budget candidate evaluations have been spent. It returns the smallest
// failing deck found and the number of predicate evaluations used; the
// result's Format() is the ready-to-run reproducer.
func Shrink(d *deck.Deck, fails func(*deck.Deck) bool, budget int) (*deck.Deck, int) {
	cur := Clone(d)
	attempts := 0
	for improved := true; improved && attempts < budget; {
		improved = false
		for _, step := range shrinkSteps {
			if attempts >= budget {
				break
			}
			cand := Clone(cur)
			if !step.apply(cand) {
				continue
			}
			if cand.Validate() != nil {
				continue
			}
			attempts++
			if fails(cand) {
				cur = cand
				improved = true
			}
		}
	}
	return cur, attempts
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"tealeaf/internal/propcheck"
)

// fuzzExperiment runs the propcheck deck fuzzer: -n seeded random decks
// (-seed) through the full invariant suite — conservation, rank
// invariance, backend bit-equality, worker-count and halo-depth
// invariance — with automatic shrinking of any failure to a minimal
// ready-to-run reproducer. -fuzzout, when given, receives the per-deck
// records as JSON; a non-zero failure count is a hard error so CI smoke
// runs fail loudly.
func fuzzExperiment(cfg config) error {
	fmt.Printf("== Fuzz: %d decks from seed %d through the invariant suite ==\n", cfg.fuzzN, cfg.fuzzSeed)
	rep := propcheck.Run(propcheck.Config{
		Seed: cfg.fuzzSeed,
		N:    cfg.fuzzN,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})

	if cfg.fuzzOut != "" {
		out := struct {
			Generated string   `json:"generated"`
			Notes     []string `json:"notes"`
			*propcheck.Report
		}{
			Generated: time.Now().UTC().Format(time.RFC3339),
			Notes: []string{
				"Each deck is solved across every checker leg: serial base, 2- and 4-rank Hub, 2-rank TCP, 2 and 4 workers (and depth 2 at 2 workers), halo depths {1,2,3}.",
				"Checker tolerances: conservation drift equal to what the solves' residuals account for, to rounding; trajectory comparisons max(contract floor, 150*eps) relative — see internal/propcheck/invariants.go.",
				"A failure record carries the deck and its shrunk minimal reproducer, both ready to run via the tea CLI.",
			},
			Report: rep,
		}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.fuzzOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", cfg.fuzzOut)
	}

	if !rep.OK() {
		for _, c := range rep.Cases {
			if c.Failure != nil {
				fmt.Printf("deck %d FAILED %s: %s\nshrunk reproducer:\n%s\n",
					c.Index, c.Failure.Checker, c.Failure.Detail, c.Failure.Shrunk)
			}
		}
		return fmt.Errorf("fuzz: %d of %d decks violated an invariant", rep.Failures, rep.N)
	}
	fmt.Printf("all %d decks passed every applicable checker\n\n", rep.N)
	return nil
}

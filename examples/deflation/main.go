// Deflation: run the stiff near-steady benchmark deck with and without
// subdomain deflation (tl_use_deflation; the paper's §VII future-work
// direction) and compare CG iteration counts. The deck is parsed from
// the tea.in dialect to show the deck-key wiring end-to-end; the same
// configuration is reachable as `tealeaf -stiff -deflate` and is
// measured against PPCG by `teabench -exp deflation`.
package main

import (
	"fmt"
	"log"

	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/par"
)

const stiffDeck = `
*tea
x_cells=64
y_cells=64
xmin=0.0
xmax=1.0
ymin=0.0
ymax=1.0
initial_timestep=10.0
end_step=2
end_time=20.0
tl_use_cg
tl_eps=1e-9
state 1 density=1.0 energy=0.1
state 2 density=1.0 energy=1.0 geometry=rectangle xmin=0.0 xmax=0.25 ymin=0.0 ymax=0.25
%s
*endtea
`

func parse(extra string) *deck.Deck {
	d, err := deck.ParseString(fmt.Sprintf(stiffDeck, extra))
	if err != nil {
		log.Fatal(err)
	}
	return d
}

func run(extra string) core.Summary {
	inst, err := core.NewSerial(parse(extra), par.NewPool(0))
	if err != nil {
		log.Fatal(err)
	}
	sum, err := inst.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	return sum
}

func main() {
	// With Δt = 10 on the unit domain, A = I + Δt·L is deep in the stiff
	// regime: the smooth subdomain modes are spectral outliers, which is
	// exactly what the coarse deflation space removes.
	plain := run("")
	deflated := run("tl_use_deflation\ntl_deflation_blocks=8")

	fmt.Printf("plain CG:    %d iterations, avg temperature %.6g\n",
		plain.TotalIterations, plain.AvgTemperature)
	fmt.Printf("deflated CG: %d iterations, avg temperature %.6g (8x8 subdomains)\n",
		deflated.TotalIterations, deflated.AvgTemperature)
	fmt.Printf("iteration reduction: %.0f%%\n",
		100*(1-float64(deflated.TotalIterations)/float64(plain.TotalIterations)))

	// The same deck decomposed over 2x2 goroutine ranks: the coarse space
	// spans the global mesh, restriction is rank-local, and the projector
	// reduces through the rank communicator — iteration counts and the
	// solution are rank-invariant.
	dist, err := core.RunDistributed(parse("tl_use_deflation\ntl_deflation_blocks=8"), 2, 2, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deflated CG, 2x2 ranks: %d iterations (rank-invariant)\n",
		dist.Summary.TotalIterations)
}

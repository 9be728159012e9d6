package core

import (
	"fmt"
	"testing"

	"tealeaf/internal/deck"
)

// PPCG's matrix-powers depth drives its inner Chebyshev steps only: its
// 20-iteration CG bootstrap runs the ordinary depth-1 CG iteration
// whatever tl_ppcg_halo_depth says. These pins were captured while the
// bootstrap still ran the CG engine's own depth-d exchange cycle, on the
// runs where that cycle ran (rank neighbours, depth > 1), so they held the
// depth-1 bootstrap to the bits the cycle gave. The hashes were re-pinned
// when PPCG's outer iteration moved onto the CG engine; every iteration
// count stayed.

// ppcgDepthLayouts are the decompositions pinned: 2 and 4 Hub ranks and
// 2 loopback TCP ranks.
var ppcgDepthLayouts = []struct {
	name string
	l    stepLayout
}{
	{"hub2", stepLayout{px: 2, py: 1}},
	{"hub4", stepLayout{px: 2, py: 2}},
	{"tcp2", stepLayout{px: 2, py: 1, tcp: true}},
}

// ppcgDepthPins: three steps of the stiff deck (32² in 2D, 12³ in 3D),
// PPCG with jac_diag, plain or with 4×4(×4) deflation blocks.
var ppcgDepthPins = map[string]stepPin{
	"2d/d2/defl=false/hub2": {[]int{39, 51, 49}, 0x453a8646e37b190b},
	"2d/d2/defl=false/hub4": {[]int{39, 51, 49}, 0x9aeaf926f6955fb6},
	"2d/d2/defl=false/tcp2": {[]int{39, 51, 49}, 0x453a8646e37b190b},
	"2d/d2/defl=true/hub2":  {[]int{32, 32, 30}, 0x44dc723958e5a59d},
	"2d/d2/defl=true/hub4":  {[]int{32, 32, 30}, 0x66cfe3ccf6e7e7e},
	"2d/d2/defl=true/tcp2":  {[]int{32, 32, 30}, 0x44dc723958e5a59d},
	"2d/d4/defl=false/hub2": {[]int{39, 51, 49}, 0xa713fdb451edd418},
	"2d/d4/defl=false/hub4": {[]int{39, 51, 49}, 0x972385257d6fc20b},
	"2d/d4/defl=false/tcp2": {[]int{39, 51, 49}, 0xa713fdb451edd418},
	"2d/d4/defl=true/hub2":  {[]int{32, 32, 30}, 0x22432566728a8154},
	"2d/d4/defl=true/hub4":  {[]int{32, 32, 30}, 0xb950a6e16cfe77a},
	"2d/d4/defl=true/tcp2":  {[]int{32, 32, 30}, 0x22432566728a8154},
	"3d/d2/defl=false/hub2": {[]int{32, 35, 32}, 0xf165176a7b77d9b5},
	"3d/d2/defl=false/hub4": {[]int{32, 35, 32}, 0xed7b94f7f67a663f},
	"3d/d2/defl=false/tcp2": {[]int{32, 35, 32}, 0xf165176a7b77d9b5},
	"3d/d2/defl=true/hub2":  {[]int{25, 25, 22}, 0x5545c4c409d7d944},
	"3d/d2/defl=true/hub4":  {[]int{25, 25, 22}, 0x9e7606fdc507f823},
	"3d/d2/defl=true/tcp2":  {[]int{25, 25, 22}, 0x5545c4c409d7d944},
	"3d/d4/defl=false/hub2": {[]int{32, 35, 32}, 0x53e2f3707dceda43},
	"3d/d4/defl=false/hub4": {[]int{32, 35, 32}, 0xabfe83ea802175d6},
	"3d/d4/defl=false/tcp2": {[]int{32, 35, 32}, 0x53e2f3707dceda43},
	"3d/d4/defl=true/hub2":  {[]int{25, 25, 22}, 0x253357dd0cbea198},
	"3d/d4/defl=true/hub4":  {[]int{25, 25, 22}, 0x98652e808d2aa2b0},
	"3d/d4/defl=true/tcp2":  {[]int{25, 25, 22}, 0x253357dd0cbea198},
}

func TestPPCGDepthPins(t *testing.T) {
	const steps = 3
	for _, dims := range []int{2, 3} {
		n := 32
		if dims == 3 {
			n = 12
		}
		for _, depth := range []int{2, 4} {
			for _, defl := range []bool{false, true} {
				for _, lay := range ppcgDepthLayouts {
					name := fmt.Sprintf("%dd/d%d/defl=%v/%s", dims, depth, defl, lay.name)
					d := stepDeck(true, func(d *deck.Deck) {
						d.Solver, d.Precond, d.HaloDepth = "ppcg", "jac_diag", depth
						d.UseDeflation, d.DeflationBlocks = defl, 4
					}, dims, n)
					iters, hash, err := stepRunOn(d, lay.l, steps)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					want, ok := ppcgDepthPins[name]
					if !ok {
						t.Errorf("%s: no pin", name)
						continue
					}
					if fmt.Sprint(iters) != fmt.Sprint(want.iters) || hash != want.hash {
						t.Errorf("%s: iterations %v hash %#x, pinned %v %#x", name, iters, hash, want.iters, want.hash)
					}
				}
			}
		}
	}
}

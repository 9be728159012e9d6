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
// runs where that cycle ran (rank neighbours, depth > 1), so they hold the
// depth-1 bootstrap to the bits the cycle gave.

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
	"2d/d2/defl=false/hub2": {[]int{39, 51, 49}, 0xce60ce1c918c4b83},
	"2d/d2/defl=false/hub4": {[]int{39, 51, 49}, 0xd809d4b0571ece13},
	"2d/d2/defl=false/tcp2": {[]int{39, 51, 49}, 0xce60ce1c918c4b83},
	"2d/d2/defl=true/hub2":  {[]int{32, 32, 30}, 0xcf9a7e4e7b3888f2},
	"2d/d2/defl=true/hub4":  {[]int{32, 32, 30}, 0x6df932ed2ef26372},
	"2d/d2/defl=true/tcp2":  {[]int{32, 32, 30}, 0xcf9a7e4e7b3888f2},
	"2d/d4/defl=false/hub2": {[]int{39, 51, 49}, 0x76e1c9870dc2d931},
	"2d/d4/defl=false/hub4": {[]int{39, 51, 49}, 0x20bfa463e79f0a8b},
	"2d/d4/defl=false/tcp2": {[]int{39, 51, 49}, 0x76e1c9870dc2d931},
	"2d/d4/defl=true/hub2":  {[]int{32, 32, 30}, 0x672808326f1ff3c8},
	"2d/d4/defl=true/hub4":  {[]int{32, 32, 30}, 0x4412ce1e66cc060a},
	"2d/d4/defl=true/tcp2":  {[]int{32, 32, 30}, 0x672808326f1ff3c8},
	"3d/d2/defl=false/hub2": {[]int{32, 35, 32}, 0x74a5d0f98f4676ea},
	"3d/d2/defl=false/hub4": {[]int{32, 35, 32}, 0x308109f95873e057},
	"3d/d2/defl=false/tcp2": {[]int{32, 35, 32}, 0x74a5d0f98f4676ea},
	"3d/d2/defl=true/hub2":  {[]int{25, 25, 22}, 0xa657f3b26abf3d05},
	"3d/d2/defl=true/hub4":  {[]int{25, 25, 22}, 0xa135ab67d5704977},
	"3d/d2/defl=true/tcp2":  {[]int{25, 25, 22}, 0xa657f3b26abf3d05},
	"3d/d4/defl=false/hub2": {[]int{32, 35, 32}, 0x8d808770c2a389e8},
	"3d/d4/defl=false/hub4": {[]int{32, 35, 32}, 0xb69c3f2073c3433b},
	"3d/d4/defl=false/tcp2": {[]int{32, 35, 32}, 0x8d808770c2a389e8},
	"3d/d4/defl=true/hub2":  {[]int{25, 25, 22}, 0xdc00e36db3af54a1},
	"3d/d4/defl=true/hub4":  {[]int{25, 25, 22}, 0x21f1b2e0da8a7c09},
	"3d/d4/defl=true/tcp2":  {[]int{25, 25, 22}, 0xdc00e36db3af54a1},
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

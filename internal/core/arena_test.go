package core

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"

	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/problem"
)

// An instance carves every grid-sized field it holds from its one arena.
// These tests hold it to that over every solver kind, preconditioner,
// deflation and dimension, and across Δt changes.

// arenaView is what a test reads of an instance: its arena, the slot of
// its preconditioner's field, and every field it holds after its Steps.
type arenaView struct {
	arena       *grid.Arena
	precondSlot int
	spec        precond.Spec
	held        map[string][]float64
}

// arenaInst is a 2D or 3D instance as these tests drive it.
type arenaInst struct {
	*instance
	energy, u []float64
	view      func() arenaView
}

func newArenaInst(d *deck.Deck) (arenaInst, error) {
	if d.Dims == 3 {
		inst, err := NewSerial3D(d, par.Serial)
		if err != nil {
			return arenaInst{}, err
		}
		return arenaInst{&inst.instance, inst.Energy.Data, inst.U.Data, func() arenaView {
			v := inst.viewFields(map[string][]float64{"kx": inst.Op.Kx.Data, "ky": inst.Op.Ky.Data, "kz": inst.Op.Kz.Data,
				"density": inst.Density.Data, "energy": inst.Energy.Data, "u": inst.U.Data, "u0": inst.u0.Data})
			if m, _ := precond.FoldableDiag3D(inst.opts.Precond3D); m != nil {
				v.held["minv"] = m.Data
			}
			return v
		}}, nil
	}
	inst, err := NewSerial(d, par.Serial)
	if err != nil {
		return arenaInst{}, err
	}
	return arenaInst{&inst.instance, inst.Energy.Data, inst.U.Data, func() arenaView {
		v := inst.viewFields(map[string][]float64{"kx": inst.Op.Kx.Data, "ky": inst.Op.Ky.Data,
			"density": inst.Density.Data, "energy": inst.Energy.Data, "u": inst.U.Data, "u0": inst.u0.Data})
		if m, _ := precond.FoldableDiag(inst.opts.Precond); m != nil {
			v.held["minv"] = m.Data
		}
		return v
	}}, nil
}

// viewFields is r's view holding the typed half's fields and the
// workspace's.
func (r *instance) viewFields(held map[string][]float64) arenaView {
	for i, d := range r.ws.Data() {
		held[fmt.Sprintf("workspace field %d", i)] = d
	}
	return arenaView{r.arena, r.precondSlot(), r.spec, held}
}

// check fails t unless every held field starts its own arena slot and
// every slot holds one of them — but the block preconditioner's, whose
// diagonal only the preconditioner holds.
func (v arenaView) check(t *testing.T) {
	t.Helper()
	owner := map[int]string{}
	for name, d := range v.held {
		slot := v.arena.SlotOf(d)
		if slot < 0 {
			t.Errorf("%s lies outside the instance's arena", name)
			continue
		}
		if other, dup := owner[slot]; dup {
			t.Errorf("%s and %s share arena slot %d", name, other, slot)
		}
		owner[slot] = name
	}
	for slot := range v.arena.Slots() {
		if _, ok := owner[slot]; !ok && !(slot == v.precondSlot && v.spec.Field && !v.spec.Folds) {
			t.Errorf("arena slot %d of %d holds no field", slot, v.arena.Slots())
		}
	}
}

// arenaDeck is the deck of one kind/preconditioner/deflation case: the
// stiff deck, where CG and PPCG run past their bootstraps, or the
// benchmark deck at a short time step, where Chebyshev runs past its
// bootstrap and Jacobi converges in a few dozen iterations.
func arenaDeck(kind, pc string, defl bool, dims int) *deck.Deck {
	set := func(d *deck.Deck) {
		d.Solver, d.Precond = kind, pc
		if defl {
			d.UseDeflation, d.DeflationBlocks = true, 4
		}
		switch kind {
		case "chebyshev":
			d.EigenCGIters, d.Eps = 4, 1e-12
		case "jacobi":
			d.InitialTimestep = 0.0004
		}
	}
	n := 24
	if dims == 3 {
		n = 12
	}
	return stepDeck(kind == "cg" || kind == "ppcg", set, dims, n)
}

// Every field that two Steps take lies in the instance's arena — no take
// falls back to a field of its own — and no arena slot goes unused, over
// kind × preconditioner × deflation × 2D/3D. An engine that takes a
// slot its kind's slot set does not list fails here.
func TestArenaHoldsEveryField(t *testing.T) {
	for _, kind := range []string{"cg", "ppcg", "chebyshev", "jacobi"} {
		for _, pc := range []string{"none", "jac_diag", "jac_block"} {
			for _, defl := range []bool{false, true} {
				if defl && (kind == "chebyshev" || kind == "jacobi") {
					continue // deflation composes with CG and PPCG only
				}
				for _, dims := range []int{2, 3} {
					t.Run(fmt.Sprintf("%s-%s-defl=%v-%dD", kind, pc, defl, dims), func(t *testing.T) {
						inst, err := newArenaInst(arenaDeck(kind, pc, defl, dims))
						if err != nil {
							t.Fatal(err)
						}
						for range 2 {
							if _, err := inst.Step(); err != nil {
								t.Fatal(err)
							}
						}
						inst.view().check(t)
					})
				}
			}
		}
	}
}

// Twenty alternating Δt changes rebuild the coefficients and the
// preconditioner's field into their own arena slots: the arena stays
// the instance's one and its slots keep every field, and the Step after
// each call is bit-identical to a fresh instance's, built at that Δt and
// given the same energy, also after rejected Δt values. Without deflation — whose refresh re-assembles
// its coarse matrix — no call allocates as much as one field: the
// build's row buffers and closures only.
func TestSetTimestepKeepsArena(t *testing.T) {
	for _, dims := range []int{2, 3} {
		for _, defl := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dD-defl=%v", dims, defl), func(t *testing.T) {
				d := arenaDeck("cg", "jac_diag", defl, dims)
				inst, err := newArenaInst(d)
				if err != nil {
					t.Fatal(err)
				}
				a := inst.arena
				var ms runtime.MemStats
				for i := range 20 {
					dt := d.InitialTimestep * float64(1+(i+1)%2)
					runtime.ReadMemStats(&ms)
					before := ms.TotalAlloc
					if err := inst.SetTimestep(dt); err != nil {
						t.Fatal(err)
					}
					runtime.ReadMemStats(&ms)
					if alloc, field := ms.TotalAlloc-before, uint64(len(inst.energy)*8); !defl && alloc >= field {
						t.Fatalf("call %d allocated %d B, one field is %d B", i, alloc, field)
					}
					if i == 10 {
						// A rejected Δt leaves the installed operator whole.
						for _, bad := range []float64{math.NaN(), math.Inf(1), 0} {
							if err := inst.SetTimestep(bad); err == nil {
								t.Fatalf("SetTimestep(%v) succeeded", bad)
							}
						}
					}

					e := *d
					e.InitialTimestep = dt
					ref, err := newArenaInst(&e)
					if err != nil {
						t.Fatal(err)
					}
					copy(ref.energy, inst.energy)
					for _, s := range []arenaInst{inst, ref} {
						if _, err := s.Step(); err != nil {
							t.Fatal(err)
						}
					}
					sameBits(t, fmt.Sprintf("call %d: energy", i), inst.energy, ref.energy)
					sameBits(t, fmt.Sprintf("call %d: u", i), inst.u, ref.u)
					if inst.arena != a {
						t.Fatalf("call %d replaced the arena", i)
					}
					inst.view().check(t)
				}
			})
		}
	}
}

// sameBits fails t unless a and b hold the same bits.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, a[i], b[i])
		}
	}
}

// BenchmarkInstanceSetup builds an instance — arena, painted fields,
// operator, preconditioner and, on the stiff deck, the deflation
// projector — from memory handed back to the kernel before every
// iteration, as a cold process would: ns/cell and the minor page faults
// per build (getrusage's ru_minflt).
func BenchmarkInstanceSetup(b *testing.B) {
	for _, c := range []struct {
		name string
		deck func() *deck.Deck
	}{
		{"stiff2d_defl_512", func() *deck.Deck {
			d := problem.StiffDeck(512)
			d.UseDeflation, d.DeflationBlocks = true, 8
			return d
		}},
		{"pipe2d_cg_1024", func() *deck.Deck {
			d := problem.CrookedPipeDeck(1024, 1024)
			d.Solver = "cg"
			return d
		}},
		{"bm3d_cg_128", func() *deck.Deck {
			d := problem.BenchmarkDeck3D(128)
			d.Solver = "cg"
			return d
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := c.deck()
			pool := par.NewPool(2)
			defer pool.Close()
			var faults int64
			for range b.N {
				b.StopTimer()
				debug.FreeOSMemory()
				before := minorFaults(b)
				b.StartTimer()
				var err error
				if d.Dims == 3 {
					_, err = NewSerial3D(d, pool)
				} else {
					_, err = NewSerial(d, pool)
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				faults += minorFaults(b) - before
				b.StartTimer()
			}
			cells := d.XCells * d.YCells * max(d.ZCells, 1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
			b.ReportMetric(float64(faults)/float64(b.N), "minflt/op")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// minorFaults is the process's minor page faults so far.
func minorFaults(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return int64(ru.Minflt)
}

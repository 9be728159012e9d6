package grid

import (
	"fmt"
	"unsafe"
)

// Field placement. A sweep streams 9–12 fields at equal indices; fields
// whose starts share an offset modulo 128 KiB (the period of the L2 set
// index) put those indices in the same cache sets, and the 1024²
// crooked-pipe CG deck on two workers ran ×2.5–2.7 slower with every
// field on a 2 MiB boundary than with staggered starts. stagger, 17
// pages plus one cache line, is the step between consecutive starts: it
// gives distinct starts modulo 4 KiB to any 64 consecutive fields and
// modulo 128 KiB to any 2 048.
const (
	hugePage  = 2 << 20
	hugeMin   = 2 * hugePage
	stagger   = 17*4096 + 64
	setPeriod = 128 << 10
	cacheLine = 64
)

// Arena is one allocation that the fields of one instance (one rank) are
// carved from: every field of n float64s the instance will hold, each in
// its own slot. Slot i starts i·pitch past slot 0, where pitch is the
// smallest length of at least n whose byte size is stagger modulo
// 128 KiB: the gap after a field is under 128 KiB, and any two slots
// start at distinct offsets modulo 4 KiB and modulo 128 KiB. On Linux an
// arena of at least 4 MiB starts on a 2 MiB boundary — so slot i's
// offset into its huge page depends only on n and i — and its whole huge
// pages are advised MADV_HUGEPAGE once; a smaller arena, and any arena on
// another platform, starts on a cache line.
//
// A carved field is a slice of the arena's storage with len == cap, so
// an append can never write into the next slot. Holding any carved field
// keeps the whole arena reachable; the arena is freed when the last of
// its fields is dropped.
//
// An Arena serves one goroutine at a time.
type Arena struct {
	data  []float64 // slot 0's start to the last slot's end
	n     int       // float64s per field
	pitch int       // float64s from one slot's start to the next
	taken []bool
}

// NewArena allocates an arena of slots fields of n float64s each.
func NewArena(n, slots int) *Arena {
	if n < 1 || slots < 1 {
		panic(fmt.Sprintf("grid: NewArena(%d, %d): need n ≥ 1 and slots ≥ 1", n, slots))
	}
	const period = setPeriod / 8
	pitch := n + ((stagger/8-n)%period+period)%period
	total := (slots-1)*pitch + n
	return &Arena{data: arenaData(total), n: n, pitch: pitch, taken: make([]bool, slots)}
}

// Slots returns the number of fields a holds.
func (a *Arena) Slots() int { return len(a.taken) }

// Field2D returns slot's field on g, whose Len must be the arena's field
// length. The first take of a slot returns storage as allocated, zeroed;
// a later take clears it whole and hands the same storage out again.
func (a *Arena) Field2D(slot int, g *Grid2D) *Field2D {
	return &Field2D{Grid: g, Data: a.take(slot, g.Len())}
}

// Field3D is Field2D on a 3D grid.
func (a *Arena) Field3D(slot int, g *Grid3D) *Field3D {
	return &Field3D{Grid: g, Data: a.take(slot, g.Len())}
}

func (a *Arena) take(slot, n int) []float64 {
	if n != a.n {
		panic(fmt.Sprintf("grid: a field of %d cells from an arena of %d-cell fields", n, a.n))
	}
	d := a.data[slot*a.pitch:][:n:n]
	if a.taken[slot] {
		clear(d)
	}
	a.taken[slot] = true
	return d
}

// SlotOf returns the slot whose storage d starts at, or −1 when d does
// not start a slot of a.
func (a *Arena) SlotOf(d []float64) int {
	if len(d) == 0 {
		return -1
	}
	off := uintptr(unsafe.Pointer(&d[0])) - uintptr(unsafe.Pointer(&a.data[0]))
	if step := uintptr(a.pitch) * 8; off%step == 0 && off/step < uintptr(len(a.taken)) {
		return int(off / step)
	}
	return -1
}

// lineAligned returns n zeroed float64s with len == cap == n, starting on
// a cache line.
func lineAligned(n int) []float64 {
	buf := make([]float64, n+cacheLine/8)
	at := uintptr(unsafe.Pointer(&buf[0]))
	i := int((cacheLine - at%cacheLine) % cacheLine / 8)
	return buf[i : i+n : i+n]
}

package grid

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// arenaCases are arenas below and above the huge-page cut-off: 2D ranks
// of the 256² two-rank, 512² and 1024² decks and a 130³ box, the large
// ones with few slots to keep the touched memory small.
var arenaCases = []struct {
	name  string
	n     int
	slots int
}{
	{"132x260", 132 * 260, 16},
	{"514x514", 514 * 514, 16},
	{"1028x1028", 1028 * 1028, 4},
	{"130x130x130", 130 * 130 * 130, 3},
	{"tiny", 7, 16},
}

// Every carved field is zeroed, has len == cap (an append can never write
// into the next slot) and starts on a cache line; consecutive slots leave
// a gap under 128 KiB; SlotOf finds each slot; a second take clears it.
func TestArenaFieldShape(t *testing.T) {
	for _, c := range arenaCases {
		t.Run(c.name, func(t *testing.T) {
			a := NewArena(c.n, c.slots)
			g := &Grid3D{NX: c.n, NY: 1, NZ: 1}
			var prev []float64
			for i := range c.slots {
				d := a.Field3D(i, g).Data
				if len(d) != c.n || cap(d) != c.n {
					t.Fatalf("slot %d: len %d cap %d, want %d", i, len(d), cap(d), c.n)
				}
				for j, v := range d {
					if v != 0 {
						t.Fatalf("slot %d: d[%d] = %v", i, j, v)
					}
				}
				if addr(d)%64 != 0 {
					t.Fatalf("slot %d starts %#x, not on a cache line", i, addr(d))
				}
				if got := a.SlotOf(d); got != i {
					t.Fatalf("SlotOf(slot %d) = %d", i, got)
				}
				if prev != nil {
					end := addr(prev) + uintptr(len(prev))*8
					if gap := addr(d) - end; addr(d) < end || gap >= setPeriod {
						t.Fatalf("slot %d starts %#x after slot %d's end %#x", i, addr(d), i-1, end)
					}
				}
				for j := range d {
					d[j] = 1
				}
				prev = d
			}
			if a.SlotOf(prev[1:]) != -1 || a.SlotOf(make([]float64, 1)) != -1 {
				t.Fatal("SlotOf found a slot for storage that does not start one")
			}
			d := a.Field3D(c.slots-1, g).Data
			if addr(d) != addr(prev) {
				t.Fatal("a second take moved the slot")
			}
			for j, v := range d {
				if v != 0 {
					t.Fatalf("second take: d[%d] = %v", j, v)
				}
			}
		})
	}
}

// Every pair of fields of one arena starts at distinct offsets modulo
// 4 KiB and modulo 128 KiB (the L2 set period).
func TestArenaStaggers(t *testing.T) {
	for _, c := range arenaCases {
		a := NewArena(c.n, c.slots)
		g := &Grid3D{NX: c.n, NY: 1, NZ: 1}
		page, sets := map[uintptr]int{}, map[uintptr]int{}
		for i := range c.slots {
			s := addr(a.Field3D(i, g).Data)
			if j, dup := page[s%4096]; dup {
				t.Fatalf("%s: slots %d and %d share offset %#x mod 4 KiB", c.name, j, i, s%4096)
			}
			if j, dup := sets[s%setPeriod]; dup {
				t.Fatalf("%s: slots %d and %d share offset %#x mod 128 KiB", c.name, j, i, s%setPeriod)
			}
			page[s%4096], sets[s%setPeriod] = i, i
		}
	}
}

// A carved field alone keeps its whole arena reachable: a cleanup on the
// arena's storage does not run while the field is held, and runs once it
// is dropped.
func TestArenaFieldKeepsArenaAlive(t *testing.T) {
	freed := make(chan struct{})
	field := func() *Field2D {
		g := mustGrid2D(t, 64, 64, 2)
		a := NewArena(g.Len(), 4)
		runtime.AddCleanup(&a.data[0], func(ch chan struct{}) { close(ch) }, freed)
		return a.Field2D(3, g)
	}()
	for range 3 {
		runtime.GC()
		select {
		case <-freed:
			t.Fatal("the arena was freed while one of its fields was held")
		case <-time.After(10 * time.Millisecond):
		}
	}
	field.Data[len(field.Data)-1] = 1
	runtime.KeepAlive(field)
	field = nil
	for range 100 {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the arena was not freed after its last field was dropped")
}

func addr(d []float64) uintptr { return uintptr(unsafe.Pointer(&d[0])) }

package grid

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Every field made outside an instance, small or large, is zeroed with
// len == cap == n; a large one starts on a cache line.
func TestNewDataShape(t *testing.T) {
	for _, n := range []int{1, 1000, hugeMin/8 - 1, hugeMin / 8, 1026 * 1026, 130 * 130 * 130} {
		d := newData(n)
		if len(d) != n || cap(d) != n {
			t.Fatalf("n=%d: len %d cap %d", n, len(d), cap(d))
		}
		for i, v := range d {
			if v != 0 {
				t.Fatalf("n=%d: d[%d] = %v", n, i, v)
			}
		}
		if n*8 >= hugeMin && addr(d)%64 != 0 {
			t.Fatalf("n=%d: start %#x is not on a cache line", n, addr(d))
		}
	}
}

// Two ranks of one hub process build their arenas at once: each slot
// starts at the same offset into its huge page on both, as an arena of at
// least hugeMin bytes starts on a huge-page boundary (run under -race
// too).
func TestArenaRanksShareOffsets(t *testing.T) {
	const ranks, slots, n = 2, 9, 514 * 514
	g := mustGrid2D(t, 512, 512, 1)
	starts := make([][]uintptr, ranks)
	var wg sync.WaitGroup
	for r := range starts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewArena(n, slots)
			for i := range slots {
				starts[r] = append(starts[r], addr(a.Field2D(i, g).Data)%hugePage)
			}
		}()
	}
	wg.Wait()
	for i := range slots {
		if starts[0][i] != starts[1][i] {
			t.Fatalf("slot %d starts %#x into its huge page on rank 0, %#x on rank 1", i, starts[0][i], starts[1][i])
		}
	}
	if starts[0][0] != 0 {
		t.Fatalf("slot 0 starts %#x into its huge page, want 0", starts[0][0])
	}
}

// The kernel records the advice over an arena's whole huge pages (smaps'
// hg flag), once for the whole arena.
func TestArenaAdvisesHugePages(t *testing.T) {
	if _, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil {
		t.Skip("kernel without transparent huge pages")
	}
	a := NewArena(514*514, 9)
	start := addr(a.data)
	lo := (start + hugePage - 1) &^ (hugePage - 1)
	hi := (start + uintptr(len(a.data))*8) &^ (hugePage - 1)
	if lo != start {
		t.Fatalf("arena starts %#x, not on a huge page", start)
	}
	if m := mapping(t, lo); !m.flags["hg"] || m.end < hi {
		t.Fatalf("mapping %#x-%#x (flags %v) does not carry hg over %#x-%#x", m.start, m.end, m.flags, lo, hi)
	}
}

// The kernel records the advice on the whole huge pages inside a large
// field (smaps' hg flag), and a touch faults them in as huge pages
// unless THP is off.
func TestNewDataAdvisesHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skip("kernel without transparent huge pages")
	}
	// The field must come from address space the heap has never used. One
	// that reuses freed heap memory is zeroed by the runtime before the
	// advice, so its pages are resident as 4 KiB pages already and no
	// touch faults a huge page in. A buffer larger than all the heap's
	// idle memory (the free part of HeapSys) fits in no free run, but the
	// lowest run that can grow into fresh address space is the free tail
	// of the heap, which may hold used pages; the runtime then zeroes the
	// whole buffer. So a plug of that size takes the tail first, and the
	// field, larger still, fits in no free run below the plug either: it
	// comes from the fresh space above it. Each run in one process leaves
	// both idle for the next, so the size triples per -count; past
	// freshMax the run is skipped.
	const freshMax = 256 << 20
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := max(4*hugePage, int(ms.HeapIdle)+2*hugePage)
	if n > freshMax {
		t.Skipf("the heap holds %d MiB idle: a field above it would be too large", ms.HeapIdle>>20)
	}
	plug := make([]byte, n)
	d := newData(n / 8)
	runtime.KeepAlive(plug)
	start := addr(d)
	lo := (start + hugePage - 1) &^ (hugePage - 1)
	hi := (start + uintptr(len(d))*8) &^ (hugePage - 1)
	if m := mapping(t, lo); !m.flags["hg"] || m.end < hi {
		t.Fatalf("mapping %#x-%#x (flags %v) does not carry hg over %#x-%#x", m.start, m.end, m.flags, lo, hi)
	}
	if strings.Contains(string(mode), "[never]") {
		return
	}
	for i := 0; i < len(d); i += 4096 / 8 {
		d[i] = 1
	}
	if m := mapping(t, lo); m.anonHugeKB == 0 {
		t.Fatalf("no AnonHugePages in mapping %#x-%#x after touching the field", m.start, m.end)
	}
}

// smapsEntry is one mapping of /proc/self/smaps.
type smapsEntry struct {
	start, end uintptr
	flags      map[string]bool
	anonHugeKB int
}

// mapping returns the mapping of /proc/self/smaps that holds a.
func mapping(t *testing.T, a uintptr) smapsEntry {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skip("no /proc/self/smaps")
	}
	defer f.Close()
	var cur smapsEntry
	found := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch key := fields[0]; {
		case strings.Contains(key, "-") && !strings.HasSuffix(key, ":"):
			if found {
				return cur
			}
			bounds := strings.SplitN(key, "-", 2)
			s, _ := strconv.ParseUint(bounds[0], 16, 64)
			e, _ := strconv.ParseUint(bounds[1], 16, 64)
			cur = smapsEntry{start: uintptr(s), end: uintptr(e), flags: map[string]bool{}}
			found = cur.start <= a && a < cur.end
		case key == "AnonHugePages:":
			cur.anonHugeKB, _ = strconv.Atoi(fields[1])
		case key == "VmFlags:":
			for _, fl := range fields[1:] {
				cur.flags[fl] = true
			}
		}
	}
	if !found {
		t.Fatalf("no mapping holds %#x", a)
	}
	return cur
}

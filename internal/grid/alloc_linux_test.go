package grid

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func addr(d []float64) uintptr { return uintptr(unsafe.Pointer(&d[0])) }

// Every field, small or large, is zeroed with len == cap == n; a large one
// starts on a cache line.
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

// A sweep's worth of consecutive large fields starts at distinct offsets
// modulo 4 KiB and modulo 128 KiB (the L2 set period), each offset the
// counter's step of the stagger.
func TestNewDataStaggers(t *testing.T) {
	const fields = 12
	first := hugeFields.Load()
	keep := make([][]float64, fields)
	page, sets := map[uintptr]int{}, map[uintptr]int{}
	for i := range keep {
		keep[i] = newData(hugeMin / 8)
		a := addr(keep[i])
		if want := uintptr((first + uint64(i)) * stagger % hugePage); a%hugePage != want {
			t.Fatalf("field %d starts %#x into its huge page, want %#x", i, a%hugePage, want)
		}
		if j, dup := page[a%4096]; dup {
			t.Fatalf("fields %d and %d share offset %#x mod 4 KiB", j, i, a%4096)
		}
		if j, dup := sets[a%(128<<10)]; dup {
			t.Fatalf("fields %d and %d share offset %#x mod 128 KiB", j, i, a%(128<<10))
		}
		page[a%4096], sets[a%(128<<10)] = i, i
	}
}

// A field below hugeMin is make's plain slice: it takes no stagger slot.
func TestSmallFieldsTakePlainPath(t *testing.T) {
	before := hugeFields.Load()
	newData(hugeMin/8 - 1)
	NewField2D(mustGrid2D(t, 500, 500, 2))
	if got := hugeFields.Load(); got != before {
		t.Fatalf("small fields took %d stagger slots", got-before)
	}
	NewField3D(mustGrid3D(t, 80, 80, 80, 1))
	if got := hugeFields.Load(); got != before+1 {
		t.Fatalf("an 82³ field took %d stagger slots, want 1", got-before)
	}
}

// Ranks allocate their fields at once: every start still gets its own
// slot (run under -race too).
func TestNewDataConcurrent(t *testing.T) {
	const ranks, each = 4, 3
	starts := make([][]uintptr, ranks)
	var wg sync.WaitGroup
	for r := range starts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				d := newData(hugeMin / 8)
				starts[r] = append(starts[r], addr(d)%hugePage)
			}
		}()
	}
	wg.Wait()
	seen := map[uintptr]bool{}
	for _, s := range starts {
		for _, a := range s {
			if seen[a] || a%64 != 0 {
				t.Fatalf("start %#x into a huge page repeated or off a cache line", a)
			}
			seen[a] = true
		}
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
	d := newData(4 * hugePage / 8)
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

package grid

import (
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Field storage on Linux: a field of at least hugeMin bytes asks the
// kernel for 2 MiB transparent huge pages over the whole huge pages it
// spans, so set-up faults it in 512 times fewer pieces and a sweep walks
// 512 times fewer TLB entries. The storage is an ordinary Go slice with
// one huge page of slack, so it stays GC-managed. MADV_HUGEPAGE is only
// advice: a kernel with THP off ignores it, one with THP `always` needs
// none.
//
// Each such field starts stagger bytes further into its huge page than
// the one before it. Fields that all started on a 2 MiB boundary would
// put equal indices of every field in the same L2 cache sets (the set
// index repeats every 128 KiB); a fused sweep streams 9–12 fields at
// equal indices, and the 1024² crooked-pipe CG deck on two workers ran
// ×2.5–2.7 slower with aligned starts than with staggered ones. stagger,
// 17 pages plus one cache line, gives distinct starts modulo 4 KiB to
// any 64 consecutive fields and modulo 128 KiB to any 2 048.
const (
	hugePage = 2 << 20
	hugeMin  = 2 * hugePage
	stagger  = 17*4096 + 64
)

// hugeFields counts the fields placed on huge pages; the count picks the
// next field's offset.
var hugeFields atomic.Uint64

// newData returns n zeroed float64s with len == cap == n.
func newData(n int) []float64 {
	if n*8 < hugeMin {
		return make([]float64, n)
	}
	buf := make([]float64, n+hugePage/8)
	want := uintptr((hugeFields.Add(1) - 1) * stagger % hugePage)
	at := uintptr(unsafe.Pointer(&buf[0]))
	i := int((want - at%hugePage + hugePage) % hugePage / 8)
	d := buf[i : i+n : i+n]

	// Advise the whole huge pages inside d (hugeMin leaves at least one);
	// the ragged ends stay on 4 KiB pages. The error is ignored: the
	// advice is only advice.
	start := uintptr(unsafe.Pointer(&d[0]))
	lo := (start + hugePage - 1) &^ (hugePage - 1)
	hi := (start + uintptr(n)*8) &^ (hugePage - 1)
	_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Pointer(&d[(lo-start)/8])), hi-lo), syscall.MADV_HUGEPAGE)
	return d
}

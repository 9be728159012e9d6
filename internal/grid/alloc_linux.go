package grid

import (
	"syscall"
	"unsafe"
)

// Field storage on Linux: storage of at least hugeMin bytes asks the
// kernel for 2 MiB transparent huge pages over the whole huge pages it
// spans, so a first touch faults it in 512 times fewer pieces and a sweep
// walks 512 times fewer TLB entries. The storage is an ordinary Go slice
// with one huge page of slack, so it stays GC-managed. MADV_HUGEPAGE is
// only advice: a kernel with THP off ignores it, one with THP `always`
// needs none.

// newData returns n zeroed float64s with len == cap == n: the storage of
// a field made outside an instance (an instance carves its fields from
// its Arena). A field of at least hugeMin bytes starts k·stagger modulo
// 2 MiB past a huge-page boundary, k the index of the huge page its
// buffer starts in, and its whole huge pages are advised; a smaller field
// is make's plain slice. Buffers live at once start in distinct huge
// pages (each spans more than one), so their starts differ modulo 4 KiB
// unless their k differ by a multiple of 64 (128 MiB apart) and modulo
// 128 KiB unless by a multiple of 2 048 (4 GiB): the stagger needs no
// state shared between allocations.
func newData(n int) []float64 {
	if n*8 < hugeMin {
		return make([]float64, n)
	}
	buf := make([]float64, n+hugePage/8)
	at := uintptr(unsafe.Pointer(&buf[0]))
	return onHugePages(buf, n, at/hugePage*stagger%hugePage)
}

// arenaData returns an arena's n zeroed float64s with len == cap == n:
// from a 2 MiB boundary, its whole huge pages advised, for at least
// hugeMin bytes; from a cache line below that.
func arenaData(n int) []float64 {
	if n*8 < hugeMin {
		return lineAligned(n)
	}
	return onHugePages(make([]float64, n+hugePage/8), n, 0)
}

// onHugePages returns the n float64s of buf (which holds one huge page of
// slack past n) that start off bytes past a huge-page boundary, and
// advises the whole huge pages inside them (hugeMin leaves at least one);
// the ragged ends stay on 4 KiB pages. The error is ignored: the advice
// is only advice.
func onHugePages(buf []float64, n int, off uintptr) []float64 {
	at := uintptr(unsafe.Pointer(&buf[0]))
	i := int((off - at%hugePage + hugePage) % hugePage / 8)
	d := buf[i : i+n : i+n]
	start := uintptr(unsafe.Pointer(&d[0]))
	lo := (start + hugePage - 1) &^ (hugePage - 1)
	hi := (start + uintptr(n)*8) &^ (hugePage - 1)
	_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Pointer(&d[(lo-start)/8])), hi-lo), syscall.MADV_HUGEPAGE)
	return d
}

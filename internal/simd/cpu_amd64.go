package simd

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low and high halves of extended control register 0.
func xgetbv() (eax, edx uint32)

// hasAVX2 applies the detection rule Intel documents for AVX2:
// CPUID.1:ECX reports OSXSAVE and AVX, XCR0 has the XMM and YMM state
// bits (1 and 2) enabled by the OS, and CPUID.(7,0):EBX bit 5 reports
// AVX2.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

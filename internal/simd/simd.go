// Package simd decides, once at package initialisation, whether the hot
// row leaves of internal/stencil and internal/kernels run as AVX2
// assembly or as their portable Go form.
//
// The choice is not a knob: there is no option, deck key, flag, build tag
// or environment variable. Both forms compute every output and every
// reduced partial with the same operations in the same association (see
// DESIGN.md, "AVX2 row leaves"), so the choice changes how long a sweep
// takes and nothing else. The Go leaves are the fallback on every other
// host and the oracle the assembly is tested against.
package simd

// AVX2 reports that the CPU implements AVX2 and the operating system
// saves the YMM register state across context switches — the condition
// under which the assembly leaves run. It is always false off amd64, and
// false in a binary linked with force set to "go".
var AVX2 = hasAVX2() && force != "go"

// force is set only at link time, to run a whole test suite or binary on
// the Go leaves that every non-AVX2 host runs:
//
//	go test -ldflags=-X=tealeaf/internal/simd.force=go ./...
//
// It is a linker string, not a runtime knob: nothing reads it after
// package initialisation.
var force string

// Leaves names the row leaves this process runs: "avx2" or "go".
func Leaves() string {
	if AVX2 {
		return "avx2"
	}
	return "go"
}

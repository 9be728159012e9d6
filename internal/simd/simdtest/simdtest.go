// Package simdtest holds what the row-leaf tests of internal/stencil and
// internal/kernels share: the inputs that check an assembly leaf against
// its Go form bit for bit, the comparison, and a Go-vs-AVX2 benchmark
// pair.
//
// Inputs cover every start offset modulo 32 bytes and, for a Special
// generator, −0, subnormals, ±Inf, NaN and magnitudes whose products
// overflow. The comparison is bit for bit with one latitude: any NaN
// matches any NaN. When two NaNs meet, which one an x86 add or multiply
// returns depends on operand order, which Go does not fix for
// commutative operators; everything else, signed zeros and subnormals
// included, must match exactly.
package simdtest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/simd"
)

// Gen draws leaf inputs.
type Gen struct {
	rng     *rand.Rand
	special bool
}

// NewGen returns a generator seeded with seed; a special one mixes in
// the special values.
func NewGen(seed int64, special bool) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed)), special: special}
}

var specialValues = []float64{
	math.Copysign(0, -1), 0, 5e-324, -2.2e-310, 1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300,
}

// Value is a number of either sign in [−4, 4), or — for a special
// generator, one draw in four — one of the special values.
func (g *Gen) Value() float64 {
	if g.special && g.rng.Intn(4) == 0 {
		return specialValues[g.rng.Intn(len(specialValues))]
	}
	return g.rng.Float64()*8 - 4
}

// Row returns n fresh values starting off mod 4 elements into their own
// allocation: offsets 0–3 put the first element at every 8-byte position
// modulo 32.
func (g *Gen) Row(n, off int) []float64 {
	buf := make([]float64, off%4+n)
	for i := range buf {
		buf[i] = g.Value()
	}
	return buf[off%4:]
}

// Clone copies s into a fresh row at the same offset as Row(len(s), off).
func Clone(s []float64, off int) []float64 {
	c := make([]float64, off%4+len(s))[off%4:]
	copy(c, s)
	return c
}

// Same reports whether a and b have the same bits, or are both NaN.
func Same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// SameRows fails t at the first index where the AVX2 leaf's output got
// differs from the Go leaf's want.
func SameRows(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !Same(got[i], want[i]) {
			t.Fatalf("%s[%d]: avx2 %v (%#x), go %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// BenchPair runs leaf/go/n=N and leaf/avx2/n=N sub-benchmarks over a row
// of n cells, reporting ns/cell; the AVX2 one skips without AVX2.
func BenchPair(b *testing.B, leaf string, n int, goLeaf, avx2Leaf func()) {
	run := func(b *testing.B, f func()) {
		for i := 0; i < b.N; i++ {
			f()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cell")
	}
	b.Run(fmt.Sprintf("%s/go/n=%d", leaf, n), func(b *testing.B) { run(b, goLeaf) })
	b.Run(fmt.Sprintf("%s/avx2/n=%d", leaf, n), func(b *testing.B) {
		if !simd.AVX2 {
			b.Skip("no AVX2 on this host")
		}
		run(b, avx2Leaf)
	})
}

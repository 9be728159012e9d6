//go:build !linux

package grid

// newData returns n zeroed float64s: a plain slice, as there is no
// huge-page advice to give.
func newData(n int) []float64 { return make([]float64, n) }

// arenaData returns an arena's n zeroed float64s with len == cap == n,
// starting on a cache line.
func arenaData(n int) []float64 { return lineAligned(n) }

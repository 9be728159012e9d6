//go:build !linux

package grid

// newData returns n zeroed float64s: a plain slice, as there is no
// huge-page advice to give.
func newData(n int) []float64 { return make([]float64, n) }

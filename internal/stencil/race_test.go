//go:build race

package stencil

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of what it is handed on purpose, so allocation pins that rest
// on pooled scratch do not hold.
const raceEnabled = true

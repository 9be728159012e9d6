//go:build !race

package stencil

const raceEnabled = false

//go:build !amd64

package simd

func hasAVX2() bool { return false }

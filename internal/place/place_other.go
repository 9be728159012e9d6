//go:build !(linux && (amd64 || arm64))

package place

// Current reports that the calling thread's CPU cannot be told.
func Current() int { return -1 }

func usableCPUs() int { return 0 }
func threadID() int   { return 0 }

// Spread does nothing: there is no affinity call to make.
func Spread(base, slot int) {}

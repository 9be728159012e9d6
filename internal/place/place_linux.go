//go:build linux && (amd64 || arm64)

package place

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU affinity mask: bit c of word c/64 is CPU c.
type cpuMask [16]uint64

func (m *cpuMask) cpus() []int {
	var out []int
	for w, bits := range m {
		for b := 0; bits != 0; b, bits = b+1, bits>>1 {
			if bits&1 != 0 {
				out = append(out, 64*w+b)
			}
		}
	}
	return out
}

// The frozen syscall package has the two affinity numbers but neither
// wrapper, and no getcpu at all. A zero pid is the calling thread.

func getAffinity(m *cpuMask) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno == 0
}

func setAffinity(m *cpuMask) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno == 0
}

// threadID returns the kernel's id of the calling thread.
func threadID() int {
	tid, _, _ := syscall.RawSyscall(syscall.SYS_GETTID, 0, 0, 0)
	return int(tid)
}

// usableCPUs counts the CPUs the calling thread may run on.
func usableCPUs() int {
	var m cpuMask
	if !getAffinity(&m) {
		return 0
	}
	return len(m.cpus())
}

// Current returns the CPU the calling goroutine's thread is running on
// right now, or -1 when that cannot be told. The goroutine may be on
// another thread, and the thread on another CPU, by the time it returns.
func Current() int {
	var cpu uint32
	if _, _, errno := syscall.RawSyscall(sysGetcpu, uintptr(unsafe.Pointer(&cpu)), 0, 0); errno != 0 {
		return -1
	}
	return int(cpu)
}

// Spread moves the thread the calling goroutine is running on to the CPU
// slot places after base in the list of CPUs the thread may use, wrapping
// around; slot 0, a base of -1 and a thread confined to one CPU leave it
// where it is. Callers number themselves from one base — a launcher's
// ranks by rank, a team's helpers from 1 — so that as many callers as
// there are CPUs end up on distinct ones.
func Spread(base, slot int) {
	if base < 0 {
		return
	}
	// Both calls below must reach the same thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allowed cpuMask
	if !getAffinity(&allowed) {
		return
	}
	cpus := allowed.cpus()
	if len(cpus) < 2 || slot%len(cpus) == 0 {
		return
	}
	at := 0
	for i, c := range cpus {
		if c == base {
			at = i
		}
	}
	to := cpus[(at+slot)%len(cpus)]
	var one cpuMask
	one[to/64] = 1 << (to % 64)
	if setAffinity(&one) { // returns with the thread already on its new CPU
		setAffinity(&allowed)
	}
}

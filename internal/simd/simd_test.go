package simd

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestLeavesNamesTheDispatch(t *testing.T) {
	want := "go"
	if AVX2 {
		want = "avx2"
	}
	if got := Leaves(); got != want {
		t.Errorf("Leaves() = %q with AVX2 = %v, want %q", got, AVX2, want)
	}
	if runtime.GOARCH != "amd64" && AVX2 {
		t.Errorf("AVX2 = true on %s", runtime.GOARCH)
	}
	if want := hasAVX2() && force != "go"; AVX2 != want {
		t.Errorf("AVX2 = %v with the CPU reporting %v and force = %q", AVX2, hasAVX2(), force)
	}
}

// On Linux the kernel lists "avx2" among a CPU's flags exactly when the
// CPU has it and the kernel enables the YMM state, so the two detections
// must agree.
func TestAVX2AgreesWithProcCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("needs /proc/cpuinfo on linux/amd64")
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		listed := false
		for _, f := range strings.Fields(flags) {
			listed = listed || f == "avx2"
		}
		if listed != hasAVX2() {
			t.Errorf("/proc/cpuinfo lists avx2: %v, CPUID reports %v", listed, hasAVX2())
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}

package machine

import (
	"math"
	"testing"
)

func TestTableISystems(t *testing.T) {
	systems := All()
	if len(systems) != 3 {
		t.Fatalf("Table I has 3 systems, got %d", len(systems))
	}
	names := map[string]bool{}
	for _, m := range systems {
		names[m.Name] = true
		if m.Device.StreamBW <= 0 || m.Network.Latency <= 0 || m.Network.Bandwidth <= 0 {
			t.Errorf("%s has non-positive parameters", m.Name)
		}
		if m.TotalNodes <= 0 || m.CoresPerNode <= 0 {
			t.Errorf("%s has no size", m.Name)
		}
		if m.DriverNote == "" {
			t.Errorf("%s missing driver note", m.Name)
		}
	}
	for _, want := range []string{"Spruce", "Piz Daint", "Titan"} {
		if !names[want] {
			t.Errorf("missing system %q", want)
		}
	}
}

func TestTableICoreCounts(t *testing.T) {
	// Table I: Spruce 40,080; Piz Daint 115,984; Titan 560,640.
	if got := Spruce().TotalCores(); got != 40080 {
		t.Errorf("Spruce cores = %d, want 40080", got)
	}
	if got := PizDaint().TotalCores(); got != 115984 {
		t.Errorf("Piz Daint cores = %d, want 115984", got)
	}
	if got := Titan().TotalCores(); got != 560640 {
		t.Errorf("Titan cores = %d, want 560640", got)
	}
	if Titan().TotalNodes != 18688 {
		t.Errorf("Titan nodes = %d, want 18688 (XK7)", Titan().TotalNodes)
	}
}

func TestSameGPUDifferentNetwork(t *testing.T) {
	// §VI attributes the Titan/Piz Daint gap entirely to the network:
	// both machines must model the same device.
	td, pd := Titan().Device, PizDaint().Device
	if td != pd {
		t.Errorf("Titan and Piz Daint must share the K20x device model")
	}
	if Titan().Network.Name == PizDaint().Network.Name {
		t.Error("Titan and Piz Daint must have different networks")
	}
}

func TestEffectiveBWCacheModel(t *testing.T) {
	d := Spruce().Device
	// Deep in cache: full cache bandwidth.
	if got := d.EffectiveBW(1e6); math.Abs(got-d.CacheBW) > 1e-6*d.CacheBW {
		t.Errorf("in-cache BW = %v, want %v", got, d.CacheBW)
	}
	// Far out of cache: approaches stream bandwidth.
	if got := d.EffectiveBW(100 * d.CacheBytes); got > 1.1*d.StreamBW {
		t.Errorf("out-of-cache BW = %v, want ≈ %v", got, d.StreamBW)
	}
	// Monotone non-increasing in working set.
	prev := math.Inf(1)
	for ws := 1e6; ws < 1e10; ws *= 2 {
		bw := d.EffectiveBW(ws)
		if bw > prev+1 {
			t.Errorf("EffectiveBW not monotone at ws=%v: %v > %v", ws, bw, prev)
		}
		prev = bw
	}
	// GPUs have no cache bonus.
	if got := Titan().Device.EffectiveBW(1e3); got != Titan().Device.StreamBW {
		t.Errorf("GPU cache bonus must be disabled, got %v", got)
	}
}

func TestTileFor(t *testing.T) {
	d := Spruce().Device // 50 MB LLC, 25 MB tile budget
	// Small 2D mesh: everything fits, no tiling.
	if tx, ty, tz := d.TileFor(256, 256, 0, 5); tx != 0 || ty != 0 || tz != 0 {
		t.Errorf("small mesh tiled as (%d,%d,%d), want untiled", tx, ty, tz)
	}
	// 4096² at 5 fields/cell is ~671 MB: Y must split, X never.
	tx, ty, tz := d.TileFor(4096, 4096, 0, 5)
	if tx != 0 || tz != 0 {
		t.Errorf("2D tile must split only Y, got (%d,%d,%d)", tx, ty, tz)
	}
	if ty < 4 || ty >= 4096 {
		t.Errorf("ty = %d out of range", ty)
	}
	// The tile working set must fit the budget.
	if ws := float64(5*8*(4096+2)) * float64(ty+2); ws > d.CacheBytes/2 {
		t.Errorf("2D tile working set %.0f exceeds budget %.0f", ws, d.CacheBytes/2)
	}
	// 256×256×512 at 7 fields/cell: one XY plane is ~3.7 MB so a block
	// of Z planes fits the 25 MB budget; Y stays whole.
	tx, ty, tz = d.TileFor(256, 256, 512, 7)
	if tx != 0 || ty != 0 {
		t.Errorf("3D tile with fitting planes must split only Z, got (%d,%d,%d)", tx, ty, tz)
	}
	if tz < 1 || tz >= 512 {
		t.Errorf("tz = %d out of range", tz)
	}
	// 2048×2048×128 at 7 fields/cell: one plane is ~235 MB, so Y must
	// split too under a thin Z slab.
	tx, ty, tz = d.TileFor(2048, 2048, 128, 7)
	if tx != 0 {
		t.Errorf("X must never split, got tx=%d", tx)
	}
	if ty == 0 || tz == 0 {
		t.Errorf("fat planes must force a Y split under a Z slab, got (%d,%d,%d)", tx, ty, tz)
	}
	if ws := float64(7*8*(2048+2)) * float64(ty+2) * float64(tz+2); ws > 2*d.CacheBytes {
		t.Errorf("3D tile working set %.0f far exceeds budget", ws)
	}
	// Zero cache model falls back to a nominal budget rather than zero.
	if _, ty, _ := (Device{}).TileFor(8192, 8192, 0, 5); ty < 4 {
		t.Errorf("no-cache-model fallback gave ty=%d", ty)
	}
}

func TestHostDevice(t *testing.T) {
	d := HostDevice()
	if d.CacheBytes <= 0 || d.StreamBW <= 0 {
		t.Fatalf("HostDevice must always report positive cache and bandwidth: %+v", d)
	}
}

func TestAllReduceScalesLogarithmically(t *testing.T) {
	net := aries()
	if net.AllReduceTime(1) != 0 {
		t.Error("single-rank allreduce is free")
	}
	t1k := net.AllReduceTime(1024)
	t2k := net.AllReduceTime(2048)
	if t2k <= t1k {
		t.Error("allreduce must grow with ranks")
	}
	// Log growth: doubling P adds roughly one tree level, not a doubling.
	if t2k > 1.35*t1k {
		t.Errorf("allreduce grows too fast: %v -> %v", t1k, t2k)
	}
}

func TestGeminiWorseThanAriesAtScale(t *testing.T) {
	// §VI: "the higher performance of Piz Daint's fully configured Cray
	// Aries interconnect compared to Titan's previous generation Cray
	// Gemini".
	g, a := gemini(), aries()
	for _, p := range []int{64, 512, 2048} {
		if g.AllReduceTime(p) <= a.AllReduceTime(p) {
			t.Errorf("p=%d: Gemini allreduce must cost more than Aries", p)
		}
		if g.MessageTime(8192, p) <= a.MessageTime(8192, p) {
			t.Errorf("p=%d: Gemini message must cost more than Aries", p)
		}
	}
	// The gap must widen with scale (congestion).
	r64 := g.AllReduceTime(64) / a.AllReduceTime(64)
	r4k := g.AllReduceTime(4096) / a.AllReduceTime(4096)
	if r4k <= r64 {
		t.Errorf("Gemini/Aries gap must widen with scale: %v at 64, %v at 4096", r64, r4k)
	}
}

func TestMessageTimeLatencyVsBandwidth(t *testing.T) {
	net := aries()
	small := net.MessageTime(8, 64)
	big := net.MessageTime(8e6, 64)
	if small < net.Latency {
		t.Error("small message must cost at least the latency")
	}
	if big < 8e6/net.Bandwidth {
		t.Error("big message must cost at least the bandwidth term")
	}
	// Deeper halos amortise latency: 16 messages of depth 1 must cost
	// more than 1 message of depth 16 (the matrix-powers rationale).
	depth1x16 := 16 * net.MessageTime(4000*8, 1024)
	depth16 := net.MessageTime(16*4000*8, 1024)
	if depth16 >= depth1x16 {
		t.Errorf("deep halo must beat many shallow ones: %v vs %v", depth16, depth1x16)
	}
}

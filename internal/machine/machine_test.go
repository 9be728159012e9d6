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

// Package machine describes the three evaluation systems of the paper's
// Table I — Spruce (Xeon E5-2680v2 / SGI ICE-X), Piz Daint (K20x / Cray
// Aries) and Titan (K20x / Cray Gemini) — as analytic performance models.
//
// The models capture the five effects that shape the paper's
// strong-scaling curves:
//
//  1. memory-bandwidth-bound kernels (STREAM-rate compute time),
//  2. log(P)-latency global reductions (CG's scaling bottleneck, §III-A),
//  3. per-message halo-exchange latency versus payload bandwidth (what
//     the matrix-powers kernel trades against redundant compute),
//  4. fixed per-kernel launch overhead on GPUs (the time floor behind
//     Titan's plateau past ~1k nodes), and
//  5. a last-level-cache bandwidth bonus on CPUs (Spruce's super-linear
//     efficiency in Fig. 8).
//
// Parameter values are nominal for the 2015–2017 hardware; the *shape* of
// the curves, not absolute seconds, is what the reproduction targets.
package machine

import (
	"math"
	"os"
	"strconv"
	"strings"
)

// Device models one node's compute device for bandwidth-bound kernels.
type Device struct {
	Name string
	// StreamBW is the sustainable memory bandwidth in bytes/second.
	StreamBW float64
	// CacheBW is the effective bandwidth when the per-node working set
	// fits in CacheBytes (CPU LLC bonus); zero disables the cache model
	// (GPUs: the working sets of interest never fit in L2).
	CacheBW    float64
	CacheBytes float64
	// KernelLatency is the fixed overhead per kernel invocation: CUDA
	// launch latency on GPUs, parallel-region/barrier cost on CPUs.
	KernelLatency float64
	// HostTransferLatency/HostTransferBW model the PCIe hop GPU halo
	// data takes through host staging buffers (zero for CPUs).
	HostTransferLatency float64
	HostTransferBW      float64
}

// EffectiveBW returns the bandwidth for a working set of ws bytes, using
// a cache-hit-fraction blend: the fraction of the working set resident in
// the LLC is served at CacheBW, the rest at StreamBW. The blend is smooth
// in ws, so strong-scaling curves show the gradual super-linear region of
// Fig. 8 rather than a cliff.
func (d Device) EffectiveBW(ws float64) float64 {
	if d.CacheBW <= 0 || ws <= 0 {
		return d.StreamBW
	}
	f := d.CacheBytes / ws
	if f > 1 {
		f = 1
	}
	return 1 / ((1-f)/d.StreamBW + f/d.CacheBW)
}

// HostDevice describes the machine this process runs on: the LLC size
// is read from sysfs where available (Linux), falling back to a nominal
// 32 MB; the bandwidth figures are nominal single-socket numbers and
// only matter for roofline annotations.
func HostDevice() Device {
	d := Device{
		Name:          "host",
		StreamBW:      20e9,
		CacheBW:       80e9,
		CacheBytes:    32e6,
		KernelLatency: 2e-6,
	}
	if b := sysfsLLCBytes(); b > 0 {
		d.CacheBytes = float64(b)
	}
	return d
}

// sysfsLLCBytes returns the size of the highest-level cpu0 cache listed
// in sysfs, or 0 when unreadable (non-Linux, restricted container).
func sysfsLLCBytes() int64 {
	var best int64
	bestLevel := -1
	for i := 0; i < 16; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i)
		lv, err := os.ReadFile(dir + "/level")
		if err != nil {
			break
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		raw, err := os.ReadFile(dir + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1024, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1024*1024, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		if level > bestLevel {
			bestLevel, best = level, n*mult
		}
	}
	return best
}

// Network models the interconnect.
type Network struct {
	Name string
	// Latency is the small-message point-to-point latency in seconds.
	Latency float64
	// Bandwidth is the per-link payload bandwidth in bytes/second.
	Bandwidth float64
	// ReduceHop is the per-tree-level cost of an allreduce; total
	// allreduce latency is 2·log₂(P)·ReduceHop (reduce + broadcast).
	ReduceHop float64
	// CongestionPerLevel inflates point-to-point latency by
	// (1 + CongestionPerLevel·log₂(P)): the contention penalty of a
	// shared-torus network like Gemini versus Aries' adaptive dragonfly.
	CongestionPerLevel float64
}

// MessageTime returns the cost of one p2p message of n bytes at node
// count p.
func (net Network) MessageTime(n float64, p int) float64 {
	lat := net.Latency * (1 + net.CongestionPerLevel*log2(p))
	return lat + n/net.Bandwidth
}

// AllReduceTime returns the cost of one global reduction over p nodes.
// The latency scales logarithmically with node count — the "optimal
// implementation" assumption of §III-A.
func (net Network) AllReduceTime(p int) float64 {
	if p <= 1 {
		return 0
	}
	return 2 * log2(p) * net.ReduceHop * (1 + net.CongestionPerLevel*log2(p)/4)
}

func log2(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Log2(float64(p))
}

// Machine is one evaluation system: a device per node and the network
// between nodes.
type Machine struct {
	Name       string
	Device     Device
	Network    Network
	TotalNodes int
	// CoresPerNode is Table I's core accounting (CPU cores for Spruce;
	// CPU cores + SMX units for the XK7/XC30 nodes) and the flat-MPI
	// rank count per node.
	CoresPerNode int
	// DriverNote records Table I's driver/compiler column.
	DriverNote string
}

// Spruce is AWE's SGI ICE-X system: dual E5-2680v2 nodes, FDR InfiniBand
// (Table I: 40,080 cores, Intel 15.0).
func Spruce() Machine {
	return Machine{
		Name: "Spruce",
		Device: Device{
			Name:          "2x Intel E5-2680v2",
			StreamBW:      85e9,  // dual-socket DDR3-1866 STREAM triad
			CacheBW:       250e9, // aggregate LLC bandwidth
			CacheBytes:    50e6,  // 2 × 25 MB LLC
			KernelLatency: 1.5e-6,
		},
		Network: Network{
			Name:               "SGI ICE-X (FDR IB)",
			Latency:            1.6e-6,
			Bandwidth:          6.0e9,
			ReduceHop:          1.8e-6,
			CongestionPerLevel: 0.04,
		},
		TotalNodes:   2004,
		CoresPerNode: 20,
		DriverNote:   "Intel 15.0",
	}
}

// PizDaint is CSCS's Cray XC30: one K20x per node on the Aries dragonfly
// (Table I: 115,984 cores, driver 340.87 / CUDA 6.5; pre-P100 upgrade).
func PizDaint() Machine {
	return Machine{
		Name:         "Piz Daint",
		Device:       k20x(),
		Network:      aries(),
		TotalNodes:   5272,
		CoresPerNode: 22, // 16 CPU cores + 6 other units per XC30 node
		DriverNote:   "340.87 (CUDA 6.5)",
	}
}

// Titan is ORNL's Cray XK7: one K20x per node on the Gemini 3D torus
// (Table I: 560,640 cores, driver 352.101 / CUDA 7.5).
func Titan() Machine {
	return Machine{
		Name:         "Titan",
		Device:       k20x(),
		Network:      gemini(),
		TotalNodes:   18688,
		CoresPerNode: 30, // 16 CPU cores + 14 SMX units per XK7 node
		DriverNote:   "352.101 (CUDA 7.5)",
	}
}

func k20x() Device {
	return Device{
		Name:                "NVIDIA K20x",
		StreamBW:            180e9, // ~250 GB/s peak, ~180 sustained
		KernelLatency:       8e-6,  // CUDA launch + sync of that era
		HostTransferLatency: 9e-6,  // PCIe gen2 staging per message
		HostTransferBW:      6e9,
	}
}

func aries() Network {
	return Network{
		Name:               "Cray Aries",
		Latency:            1.3e-6,
		Bandwidth:          10e9,
		ReduceHop:          1.4e-6,
		CongestionPerLevel: 0.02, // adaptive-routed dragonfly: near-flat
	}
}

func gemini() Network {
	return Network{
		Name:               "Cray Gemini",
		Latency:            1.9e-6,
		Bandwidth:          4e9,
		ReduceHop:          3.2e-6,
		CongestionPerLevel: 0.22, // 3D torus: contention grows with scale
	}
}

// All returns the Table I systems in the paper's column order.
func All() []Machine {
	return []Machine{Spruce(), PizDaint(), Titan()}
}

// TotalCores reproduces Table I's "Total cores" row.
func (m Machine) TotalCores() int { return m.TotalNodes * m.CoresPerNode }

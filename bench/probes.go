package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/machine"
	"tealeaf/internal/par"
)

// hostProbes measures the host in the same process and at the same time
// as the traced rep: sustainable memory bandwidth, the round trip of a
// one-value reduction on both multi-rank backends, and the cost of an
// empty parallel region. They describe the machine the numbers were
// taken on and are never compared across commits.
func hostProbes(tiny bool) map[string]float64 {
	L := map[string]float64{}

	// Triad arrays are each at least four times the last-level cache. If
	// three of them would take more than a quarter of RAM the bandwidth
	// is not measured (0) and no roofline ratio may be formed.
	llc := int64(machine.HostDevice().CacheBytes)
	arrayBytes := 4 * llc
	L["host.llc_mb"] = float64(llc) / (1 << 20)
	L["host.triad_array_mb"] = float64(arrayBytes) / (1 << 20)
	L["host.triad_gbs"] = 0
	if tiny {
		arrayBytes = 1 << 20
	}
	if ram := ramBytes(); ram > 0 && 3*arrayBytes <= ram/4 {
		L["host.triad_gbs"] = triadGBs(int(arrayBytes / 8))
	}

	rounds := 2000
	if tiny {
		rounds = 50
	}
	part := grid.MustPartition(2, 1, 2, 1)
	rtt := func(run func(fn func(c comm.Communicator) error) error) float64 {
		var perRound float64
		err := run(func(c comm.Communicator) error {
			v := []float64{1}
			c.AllReduceSumN(v) // connect
			t := time.Now()
			for i := 0; i < rounds; i++ {
				c.AllReduceSumN(v)
				v[0] = 1
			}
			if c.Rank() == 0 {
				perRound = time.Since(t).Seconds() / float64(rounds)
			}
			return nil
		})
		if err != nil {
			return 0
		}
		return perRound * 1e6
	}
	L["host.hub_reduce_rtt_us"] = rtt(func(fn func(c comm.Communicator) error) error {
		return comm.Run(part, func(c *comm.RankComm) error { return fn(c) })
	})
	L["host.tcp_reduce_rtt_us"] = rtt(func(fn func(c comm.Communicator) error) error {
		return comm.RunTCP(part, fn)
	})

	pool := par.NewPool(maxThreads)
	defer pool.Close()
	const regions = 20000
	t := time.Now()
	for i := 0; i < regions; i++ {
		// Long enough a range that the pool splits it; the body is empty.
		pool.ForReduceN(1, 0, 1<<12, func(lo, hi int, acc []float64) {})
	}
	L["par.dispatch_us"] = time.Since(t).Seconds() / regions * 1e6
	return L
}

// triadGBs runs a[i] = b[i] + s·c[i] over n-element arrays on
// maxThreads goroutines and returns the best of three passes in
// computed GB/s (3 arrays × 8 bytes per element).
func triadGBs(n int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	split := func(body func(aa, bb, cc []float64)) {
		var wg sync.WaitGroup
		for t := 0; t < maxThreads; t++ {
			lo, hi := t*n/maxThreads, (t+1)*n/maxThreads
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(a[lo:hi], b[lo:hi], c[lo:hi])
			}()
		}
		wg.Wait()
	}
	// First touch writes every array: pages that were only ever read
	// would all map to the kernel's one zero page.
	split(func(aa, bb, cc []float64) {
		for i := range aa {
			aa[i], bb[i], cc[i] = 0, 1, 2
		}
	})
	pass := func() {
		split(func(aa, bb, cc []float64) {
			bb, cc = bb[:len(aa)], cc[:len(aa)]
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		})
	}
	best := 0.0
	for i := 0; i < 3; i++ {
		t := time.Now()
		pass()
		if gbs := float64(3*8*n) / time.Since(t).Seconds() / 1e9; gbs > best {
			best = gbs
		}
	}
	return best
}

// ramBytes is the memory this process may use: MemTotal from
// /proc/meminfo, lowered to the cgroup limit where one is set (0 when
// unreadable).
func ramBytes() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	var ram int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "MemTotal:" {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			ram = kb * 1024
		}
	}
	for _, p := range []string{"/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"} {
		if b, err := os.ReadFile(p); err == nil {
			if limit, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64); err == nil && limit < ram {
				ram = limit
			}
		}
	}
	return ram
}

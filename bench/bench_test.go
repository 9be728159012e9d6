package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"tealeaf/internal/comm"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
)

// tiny shrinks a workload to smoke-test size: same deck family, backend,
// rank and worker layout, so the same code path, in milliseconds.
func tiny(w workload) workload {
	w.Mesh, w.Steps = 32, 1
	if w.build(8).Dims == 3 {
		w.Mesh = 16
	}
	return w
}

// TestSmoke runs every workload's code path in-process, traced, and
// checks that every metric BENCHMARK.json promises comes out finite.
func TestSmoke(t *testing.T) {
	var results []workloadResult
	for _, w := range workloads {
		res := runWorkload(tiny(w), runOpts{
			Seed: 3, MinReps: 1, Layers: true, Tiny: true,
			OutDir: t.TempDir(), rep: runRep,
		})
		results = append(results, res)
		if res.OpsFailed != 0 || res.OpsAttempted != 2 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, res.OpsFailed, res.OpsAttempted, res.Failures)
			continue
		}
		for _, def := range endToEnd {
			s, ok := res.EndToEnd[def.Name]
			if !ok || !(s.Median > 0) || math.IsInf(s.Median, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want finite and positive", w.Name, def.Name, s.Median)
			}
		}
		for _, def := range perLayer {
			v, ok := res.PerLayer[def.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v), want finite", w.Name, def.Name, v.Value, ok)
			}
		}
		single := w.Ranks == 1
		if msgs := res.PerLayer["comm.halo_msgs"].Value; single != (msgs == 0) {
			t.Errorf("%s: %v halo messages on %d rank(s)", w.Name, msgs, w.Ranks)
		}
		if deflates := strings.Contains(w.Name, "defl"); deflates != (res.PerLayer["deflate.build_s"].Value > 0) {
			t.Errorf("%s: deflate.build_s = %v", w.Name, res.PerLayer["deflate.build_s"].Value)
		}
	}
	crossCheck(results)
	for _, r := range results {
		if r.OpsFailed != 0 {
			t.Errorf("%s after the cross-workload check: %v", r.Name, r.Failures)
		}
	}
}

// TestBenchmarkJSON keeps the contract file and the harness's tables in
// step: same workloads, same metrics, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Seconds   int      `json:"run_seconds"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.Name || c.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, c.Name, c.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		if w.Ranks*w.Workers > maxThreads {
			t.Errorf("%s uses %d threads, budget %d", w.Name, w.Ranks*w.Workers, maxThreads)
		}
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, harness %v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json and the harness differ")
	}
}

// TestDeckSeeds checks the seed contract: seed 0 is the canonical deck,
// a seed always gives the same text, and every jittered deck parses and
// validates.
func TestDeckSeeds(t *testing.T) {
	for _, w := range workloads {
		if got, want := w.deckText(0), w.build(w.Mesh).Format(); got != want {
			t.Errorf("%s: seed 0 is not the canonical deck", w.Name)
		}
		if strings.Contains(w.Name, "pipe") && w.deckText(7) == w.deckText(8) {
			t.Errorf("%s: seeds 7 and 8 give the same deck", w.Name)
		}
		for seed := int64(1); seed <= 20; seed++ {
			text := w.deckText(seed)
			if text != w.deckText(seed) {
				t.Fatalf("%s: seed %d is not reproducible", w.Name, seed)
			}
			d, err := deck.ParseString(text)
			if err == nil {
				err = d.Validate()
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
		}
	}
}

// TestTimedCommForwards drives every Communicator method through the
// decorator on a 2-rank Hub and a 2-rank TCP run and checks both the
// forwarded results and the spans it recorded.
func TestTimedCommForwards(t *testing.T) {
	part := grid.MustPartition(8, 4, 2, 1)
	gg := grid.MustGrid2D(8, 4, 2, 0, 8, 0, 4)
	body := func(inner comm.Communicator) error {
		rec := newRecorder(time.Now())
		var c comm.Communicator = &timedComm{inner: inner, rec: rec}
		if c.Rank() != inner.Rank() || c.Size() != 2 || c.Trace() != inner.Trace() || c.Physical() != inner.Physical() {
			t.Errorf("rank %d: identity methods not forwarded", inner.Rank())
		}
		me := float64(c.Rank() + 1)
		if got := c.AllReduceSum(me); got != 3 {
			t.Errorf("AllReduceSum = %v", got)
		}
		if a, b := c.AllReduceSum2(me, 2*me); a != 3 || b != 6 {
			t.Errorf("AllReduceSum2 = %v, %v", a, b)
		}
		if got := c.AllReduceSumN([]float64{me, 1}); got[0] != 3 || got[1] != 2 {
			t.Errorf("AllReduceSumN = %v", got)
		}
		if got := c.AllReduceMax(me); got != 2 {
			t.Errorf("AllReduceMax = %v", got)
		}
		if got := c.AllReduceSumNStart([]float64{me}).Finish(); got[0] != 3 {
			t.Errorf("AllReduceSumNStart = %v", got)
		}
		if got := c.AllReduceSumNStartTagged(1, []float64{me}).Finish(); got[0] != 3 {
			t.Errorf("AllReduceSumNStartTagged = %v", got)
		}
		c.Barrier()

		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		f := grid.NewField2D(sub)
		f.Fill(me)
		if err := c.Exchange(1, f); err != nil {
			return err
		}
		// The halo column facing the neighbour now holds its value.
		j := sub.NX
		if c.Rank() == 1 {
			j = -1
		}
		if got, want := f.At(j, 0), 3-me; got != want {
			t.Errorf("rank %d: halo after Exchange = %v, want %v", c.Rank(), got, want)
		}
		var dst *grid.Field2D
		if c.Rank() == 0 {
			dst = grid.NewField2D(gg)
		}
		if err := c.GatherInterior(f, dst); err != nil {
			return err
		}
		if dst != nil && (dst.At(0, 0) != 1 || dst.At(7, 3) != 2) {
			t.Errorf("GatherInterior: corners %v, %v", dst.At(0, 0), dst.At(7, 3))
		}
		want := map[string]int{
			"comm.reduce": 4, "comm.reduce_start": 2, "comm.reduce_finish": 2,
			"comm.barrier": 1, "comm.exchange": 1, "comm.gather": 1,
		}
		got := rec.totals()
		for name, n := range want {
			if lt := got[name]; lt == nil || lt.Count != n {
				t.Errorf("rank %d: %s spans = %+v, want %d", c.Rank(), name, lt, n)
			}
		}
		return nil
	}
	if err := comm.Run(part, func(c *comm.RankComm) error { return body(c) }); err != nil {
		t.Errorf("hub: %v", err)
	}
	if err := comm.RunTCP(part, body); err != nil {
		t.Errorf("tcp: %v", err)
	}

	// The 3D pair, on the one backend the table runs in 3D.
	rec := newRecorder(time.Now())
	c := &timedComm{inner: comm.NewSerial(), rec: rec}
	f := grid.NewField3D(grid.UnitGrid3D(2, 2, 2, 1))
	f.Fill(5)
	f.Set(-1, 0, 0, 0) // a stale halo cell the reflective exchange must refill
	dst := grid.NewField3D(f.Grid)
	if c.Physical3D() != c.inner.Physical3D() {
		t.Errorf("Physical3D not forwarded")
	}
	if err := c.Exchange3D(1, f); err != nil || f.At(-1, 0, 0) != 5 {
		t.Errorf("Exchange3D: err %v, halo %v", err, f.At(-1, 0, 0))
	}
	if err := c.GatherInterior3D(f, dst); err != nil || dst.At(1, 1, 1) != 5 {
		t.Errorf("GatherInterior3D: err %v, value %v", err, dst.At(1, 1, 1))
	}
	if got := rec.totals(); got["comm.exchange"].Count != 1 || got["comm.gather"].Count != 1 {
		t.Errorf("3D spans: %v", got)
	}
}

// TestRecorderSelfTime checks the span arithmetic: a parent's self time
// excludes its children.
func TestRecorderSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "step", Start: 0, End: 100, Parent: -1},
		{Name: "comm", Start: 10, End: 30, Parent: 0},
		{Name: "comm", Start: 50, End: 60, Parent: 0},
	}}
	got := r.totals()
	if s := got["step"]; s.Count != 1 || s.WallS != 100e-9 || math.Abs(s.SelfS-70e-9) > 1e-15 {
		t.Errorf("step totals = %+v", *s)
	}
	if c := got["comm"]; c.Count != 2 || math.Abs(c.WallS-30e-9) > 1e-15 {
		t.Errorf("comm totals = %+v", *c)
	}
	var nilRec *recorder
	nilRec.begin("x")() // tracing off: no-op
	if nilRec.mark() != 0 {
		t.Errorf("nil recorder mark != 0")
	}
}

// TestSpreadMatchesPython pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the benchmark's driver uses.
func TestSpreadMatchesPython(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := newStat(endToEnd[0], vals).spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	vals = []float64{2, 4, 4, 5, 9} // quartiles 3, 4, 7
	if got := newStat(endToEnd[0], vals).spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestCheck(t *testing.T) {
	mk := func(solve, iters float64) resultFile {
		return resultFile{Workloads: []workloadResult{{
			Name:     "w",
			EndToEnd: map[string]stat{"solve_s": newStat(endToEnd[0], []float64{solve, solve, solve, solve, solve})},
			PerLayer: map[string]value{"solver.iterations": {Value: iters, Unit: "count"}},
		}}}
	}
	var out bytes.Buffer
	if !check(&out, mk(1, 100), mk(1.05, 100)) || !strings.Contains(out.String(), "within bound") {
		t.Errorf("5%% apart should agree:\n%s", out.String())
	}
	out.Reset()
	if check(&out, mk(1, 100), mk(1.4, 100)) {
		t.Errorf("40%% apart should disagree:\n%s", out.String())
	}
	out.Reset()
	if check(&out, mk(1, 100), mk(1, 101)) || !strings.Contains(out.String(), "exact count DIFFERS") {
		t.Errorf("a changed iteration count should disagree:\n%s", out.String())
	}
	noisy := mk(1, 100)
	noisy.Workloads[0].EndToEnd["solve_s"] = newStat(endToEnd[0], []float64{0.8, 0.9, 1, 1.1, 1.3})
	out.Reset()
	if !check(&out, noisy, mk(1.02, 100)) || !strings.Contains(out.String(), "unresolved (spread > bound)") {
		t.Errorf("a noisy cell should be reported unresolved:\n%s", out.String())
	}
	out.Reset()
	if !check(&out, noisy, mk(1.3, 100)) || !strings.Contains(out.String(), "unresolved (spread > bound)") {
		t.Errorf("a difference inside a noisy cell's spread should be unresolved, not a failure:\n%s", out.String())
	}
	out.Reset()
	if check(&out, noisy, mk(1.5, 100)) {
		t.Errorf("a difference beyond bound and spread should disagree:\n%s", out.String())
	}
}

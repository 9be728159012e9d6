package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// stat summarises one end-to-end metric over the untraced reps of a run.
// Value is the number the metric reports: the median of the reps for the
// two times, the maximum for peak_rss_mb (see metrics.go).
type stat struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
}

// spread is the distance between the quartiles as a share of the median
// (0 below four samples, where quartiles mean nothing).
func (s stat) spread() float64 {
	if s.N < 4 || s.Median == 0 {
		return 0
	}
	v := append([]float64(nil), s.Values...)
	sort.Float64s(v)
	q := func(p float64) float64 { // the "exclusive" method of Python's statistics.quantiles
		h := p*float64(len(v)+1) - 1
		lo := math.Max(0, math.Min(float64(len(v)-2), math.Floor(h)))
		return v[int(lo)] + (h-lo)*(v[int(lo)+1]-v[int(lo)])
	}
	return (q(0.75) - q(0.25)) / s.Median
}

func newStat(def metricDef, values []float64) stat {
	st := stat{
		Unit: def.Unit, Median: median(values), Min: slices.Min(values), Max: slices.Max(values),
		N: len(values), Bound: def.Bound, Values: values,
	}
	st.Value = st.Median
	if def.Name == "peak_rss_mb" {
		st.Value = st.Max
	}
	return st
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's row of the result file.
type workloadResult struct {
	Name         string           `json:"name"`
	Why          string           `json:"why"`
	Layout       string           `json:"layout"`
	OpsAttempted int              `json:"ops_attempted"` // time steps attempted over all reps
	OpsFailed    int              `json:"ops_failed"`    // steps that errored, did not converge, or belong to a rep that failed a check
	Failures     []string         `json:"failures,omitempty"`
	EndToEnd     map[string]stat  `json:"end_to_end,omitempty"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	Ranks        []rankComm       `json:"ranks,omitempty"`
	// Iterations and Energy of the last untraced rep, for the
	// cross-workload agreement check.
	Iterations int     `json:"iterations"`
	Energy     float64 `json:"internal_energy"`
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Schema    string             `json:"schema"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	GoVersion string             `json:"go_version"`
	Threads   int                `json:"gomaxprocs"`
	Workloads []workloadResult   `json:"workloads"`
	Summary   map[string]float64 `json:"summary,omitempty"`
	Claim     *string            `json:"claim"` // always null: this harness measures, it claims nothing
}

// runOpts selects what a run of one workload measures.
type runOpts struct {
	Seed    int64
	Seconds float64 // keep starting untraced reps until this much time has passed…
	MinReps int     // …and at least this many have run
	Layers  bool    // add one traced rep and report per-layer metrics
	OutDir  string
	Tiny    bool
	// rep runs one rep: in a fresh child process (main) or in this
	// process (the smoke test).
	rep func(w workload, cfg repConfig) (repResult, error)
}

// runWorkload measures one workload: untraced reps for the end-to-end
// metrics, then (if asked) one traced rep for the per-layer ones.
func runWorkload(w workload, o runOpts) workloadResult {
	res := workloadResult{
		Name: w.Name, Why: w.Why,
		Layout: fmt.Sprintf("%d rank(s) on %s x %d worker(s), mesh %d, %d step(s)", w.Ranks, w.Backend, w.Workers, w.Mesh, w.Steps),
	}
	cfg := repConfig{Seed: o.Seed, OutDir: o.OutDir, Tiny: o.Tiny}
	record := func(rep repResult, err error) bool {
		res.OpsAttempted += w.Steps
		if err != nil {
			rep.Failed = append(rep.Failed, err.Error())
		}
		if len(rep.Failed) > 0 {
			res.OpsFailed += w.Steps
			res.Failures = append(res.Failures, rep.Failed...)
			return false
		}
		return true
	}

	var solve, setup, rss []float64
	start := time.Now()
	for len(solve) < o.MinReps || time.Since(start).Seconds() < o.Seconds {
		rep, err := o.rep(w, cfg)
		if !record(rep, err) {
			break // a failing build fails every rep the same way
		}
		solve, setup, rss = append(solve, rep.SolveS), append(setup, rep.SetupS), append(rss, rep.RSSMB)
		res.Iterations, res.Energy = rep.Iters, rep.Energy
	}
	if len(solve) > 0 {
		res.EndToEnd = map[string]stat{}
		for i, vals := range [][]float64{solve, setup, rss} {
			res.EndToEnd[endToEnd[i].Name] = newStat(endToEnd[i], vals)
		}
	}

	if o.Layers && res.OpsFailed == 0 {
		cfg.Traced = true
		rep, err := o.rep(w, cfg)
		if record(rep, err) {
			rep.Layers["trace.overhead"] = rep.SolveS / newStat(endToEnd[0], solve).Median
			res.PerLayer = map[string]value{}
			for _, def := range perLayer {
				res.PerLayer[def.Name] = value{Value: rep.Layers[def.Name], Unit: def.Unit}
			}
			res.Ranks = rep.Ranks
			if rep.Iters != res.Iterations {
				res.OpsFailed += w.Steps
				res.Failures = append(res.Failures, fmt.Sprintf("traced rep took %d iterations, untraced %d", rep.Iters, res.Iterations))
			}
		}
	}
	return res
}

// crossCheck applies the one correctness check that spans workloads: the
// 1- and 2-worker runs of the same deck must agree on the iteration
// count and, to 1e-9 relative, on the internal energy.
func crossCheck(rs []workloadResult) {
	var w1, w2 *workloadResult
	for i := range rs {
		switch rs[i].Name {
		case "pipe2d_cg_1024_w1":
			w1 = &rs[i]
		case "pipe2d_cg_1024_w2":
			w2 = &rs[i]
		}
	}
	if w1 == nil || w2 == nil || w1.OpsFailed+w2.OpsFailed > 0 {
		return
	}
	if w1.Iterations != w2.Iterations || math.Abs(w1.Energy-w2.Energy) > 1e-9*math.Abs(w1.Energy) {
		w2.OpsFailed = w2.OpsAttempted
		w2.Failures = append(w2.Failures, fmt.Sprintf("disagrees with %s: iterations %d vs %d, internal energy %.12g vs %.12g",
			w1.Name, w2.Iterations, w1.Iterations, w2.Energy, w1.Energy))
	}
}

func newResultFile(o runOpts, rs []workloadResult) resultFile {
	rf := resultFile{
		Schema: "tealeaf-bench/1", Seed: o.Seed, Seconds: o.Seconds,
		GoVersion: runtime.Version(), Threads: runtime.GOMAXPROCS(0), Workloads: rs,
	}
	// The end-to-end parallel efficiency needs both rows of the 1024² CG
	// deck, so it is a summary number, not a per-workload metric.
	med := map[string]float64{}
	for _, r := range rs {
		if s, ok := r.EndToEnd["solve_s"]; ok {
			med[r.Name] = s.Median
		}
	}
	if t1, t2 := med["pipe2d_cg_1024_w1"], med["pipe2d_cg_1024_w2"]; t1 > 0 && t2 > 0 {
		rf.Summary = map[string]float64{"par.efficiency_e2e": t1 / (2 * t2)}
	}
	return rf
}

func (rf resultFile) failed() int {
	n := 0
	for _, r := range rf.Workloads {
		n += r.OpsFailed
	}
	return n
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print lists every metric by name with its unit.
func (rf resultFile) print(out io.Writer) {
	for _, r := range rf.Workloads {
		fmt.Fprintf(out, "\n%s — %s\n  ops_attempted %d  ops_failed %d\n", r.Name, r.Layout, r.OpsAttempted, r.OpsFailed)
		for _, f := range r.Failures {
			fmt.Fprintf(out, "  FAILED: %s\n", f)
		}
		for _, def := range endToEnd {
			if s, ok := r.EndToEnd[def.Name]; ok {
				fmt.Fprintf(out, "  %-32s %12.6g %-8s median %.6g  min %.6g  max %.6g  n %d  spread %.3f  bound %.2f\n",
					def.Name, s.Value, s.Unit, s.Median, s.Min, s.Max, s.N, s.spread(), s.Bound)
			}
		}
		for _, def := range perLayer {
			if v, ok := r.PerLayer[def.Name]; ok {
				fmt.Fprintf(out, "  %-32s %12.6g %s\n", def.Name, v.Value, v.Unit)
			}
		}
		for _, rc := range r.Ranks {
			fmt.Fprintf(out, "  rank %d: %d reduce rounds, %.4f s reduce wait, %d exchanges, %.4f s exchanging, %d msgs, %d bytes\n",
				rc.Rank, rc.ReduceRounds, rc.ReduceWaitS, rc.Exchanges, rc.ExchangeS, rc.HaloMsgs, rc.HaloBytes)
		}
	}
	for k, v := range rf.Summary {
		fmt.Fprintf(out, "\n%s %.4f ratio\n", k, v)
	}
}

// check compares two result files of the same seed: every end-to-end
// value of b against a within the metric's bound, every exact count
// identical. A cell whose reps spread wider than the bound is reported
// as unresolved, never as agreeing, and fails only if the two values
// differ by more than the bound and by more than that spread. It prints
// a verdict per cell and returns whether all held.
func check(out io.Writer, a, b resultFile) bool {
	ok := true
	byName := map[string]workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	for _, ra := range a.Workloads {
		rb, found := byName[ra.Name]
		if !found {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := ra.EndToEnd[def.Name], rb.EndToEnd[def.Name]
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			diff := (sb.Value - sa.Value) / sa.Value
			spread := math.Max(sa.spread(), sb.spread())
			verdict := "within bound"
			switch {
			case math.Abs(diff) > def.Bound && math.Abs(diff) > spread:
				verdict, ok = "DIFFERS by more than the bound", false
			case spread > def.Bound:
				verdict = "unresolved (spread > bound)"
			}
			fmt.Fprintf(out, "%-24s %-12s %.6g -> %.6g %s (%+.1f%%, bound %.0f%%, spreads %.1f%% / %.1f%%): %s\n",
				ra.Name, def.Name, sa.Value, sb.Value, def.Unit, 100*diff, 100*def.Bound, 100*sa.spread(), 100*sb.spread(), verdict)
		}
		for _, name := range exactCounts {
			va, okA := ra.PerLayer[name]
			vb, okB := rb.PerLayer[name]
			if okA && okB && va.Value != vb.Value {
				ok = false
				fmt.Fprintf(out, "%-24s %-12s %.0f != %.0f: exact count DIFFERS\n", ra.Name, name, va.Value, vb.Value)
			}
		}
	}
	return ok
}

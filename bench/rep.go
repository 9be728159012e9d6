package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"tealeaf/internal/comm"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stats"
)

// Correctness gates applied inside every rep.
const (
	energyTol   = 1e-8 // relative internal-energy drift, step 0 → end
	residualTol = 1e-6 // ‖b − A·u‖/‖b − A·u⁰‖ of the last step (gross-error guard)
)

// repConfig is how one rep is run. Tiny is set only by the smoke test:
// it shrinks the replay counts and the host probes, never the code path.
type repConfig struct {
	Seed   int64
	Traced bool
	OutDir string // trace and scratch files
	Tiny   bool
}

// repResult is what one rep (one cold process) reports.
type repResult struct {
	SetupS   float64   `json:"setup_s"`
	SolveS   float64   `json:"solve_s"`
	StepS    []float64 `json:"step_s"` // slowest rank, per step
	RSSMB    float64   `json:"rss_mb"` // this process's ru_maxrss when the checks are done
	Iters    int       `json:"iterations"`
	Inner    int       `json:"inner_iterations"`
	Energy   float64   `json:"internal_energy"`
	Drift    float64   `json:"energy_drift_rel"`
	Residual float64   `json:"true_residual_rel"`
	Cells    int       `json:"cells"`
	// Failed names the correctness checks this rep failed; a non-empty
	// list fails every step of the rep.
	Failed []string `json:"failed,omitempty"`
	// Layers and Ranks are filled by traced reps only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Ranks  []rankComm         `json:"ranks,omitempty"`
}

// rankComm is one rank's communication during the solve.
type rankComm struct {
	Rank         int     `json:"rank"`
	ReduceRounds int     `json:"reduce_rounds"`
	ReduceWaitS  float64 `json:"reduce_wait_s"`
	Exchanges    int     `json:"exchanges"`
	ExchangeS    float64 `json:"exchange_s"`
	HaloMsgs     int     `json:"halo_msgs"`
	HaloBytes    int64   `json:"halo_bytes"`
}

// rankOut is one rank's raw measurements; each rank goroutine writes only
// its own element and the driver reads them after every rank returned.
type rankOut struct {
	enteredS float64 // t0 → rank function running
	readyS   float64 // t0 → instance built
	stepS    []float64
	iters    int
	inner    int
	ie0, ie1 float64
	residual float64
	counts   stats.Trace // solve-phase operation counts
	rec      *recorder
	solve    [2]int // span index range of the solve phase
	layers   map[string]float64
}

// runRep runs one rep of a workload in this process: deck text → ready
// instance on every rank (set-up), the workload's time steps (solve),
// then the correctness checks, and on a traced rep the per-layer
// replays. Ranks are goroutines of this process on every backend.
func runRep(w workload, cfg repConfig) (repResult, error) {
	text := w.deckText(cfg.Seed)
	outs := make([]rankOut, w.Ranks)

	t0 := time.Now()
	d, err := deck.ParseString(text)
	if err != nil {
		return repResult{}, err
	}
	parseS := time.Since(t0).Seconds()
	err = launch(w, d, func(c comm.Communicator) error {
		out := &outs[c.Rank()]
		out.enteredS = time.Since(t0).Seconds()
		var rec *recorder
		if cfg.Traced {
			rec = newRecorder(t0)
			out.rec = rec
			c = &timedComm{inner: c, rec: rec}
		}
		pool := par.Serial
		if w.Workers > 1 {
			pool = par.NewPool(w.Workers)
			defer pool.Close()
		}
		if d.Dims == 3 {
			s, err := setup3D(d, pool, c, rec)
			if err != nil {
				return err
			}
			return drive(w, cfg, s, pool, c, t0, out)
		}
		s, err := setup2D(w, d, pool, c, rec)
		if err != nil {
			return err
		}
		return drive(w, cfg, s, pool, c, t0, out)
	})
	if err != nil {
		return repResult{}, err
	}

	// Slowest rank for every wall time; counts and energies are global or
	// identical across ranks.
	res := repResult{StepS: make([]float64, w.Steps)}
	for _, o := range outs {
		res.SetupS = math.Max(res.SetupS, o.readyS)
		for i, s := range o.stepS {
			res.StepS[i] = math.Max(res.StepS[i], s)
		}
	}
	for _, s := range res.StepS {
		res.SolveS += s
	}
	o := outs[0]
	res.Iters, res.Inner = o.iters, o.inner
	res.Energy, res.Residual = o.ie1, o.residual
	res.Drift = math.Abs(o.ie1-o.ie0) / math.Abs(o.ie0)
	res.Cells = d.XCells * d.YCells
	if d.Dims == 3 {
		res.Cells *= d.ZCells
	}
	if !(res.Drift <= energyTol) {
		res.Failed = append(res.Failed, fmt.Sprintf("internal energy drifted %.3e relative (limit %.0e)", res.Drift, energyTol))
	}
	if !(res.Residual <= residualTol) {
		res.Failed = append(res.Failed, fmt.Sprintf("true residual %.3e (limit %.0e)", res.Residual, residualTol))
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if cfg.Traced {
		if err := finishTrace(w, cfg, outs, parseS, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// launch runs fn once per rank on the workload's backend, the way
// cmd/tealeaf does: a bare comm.Serial, or comm.Run / comm.RunTCP over
// a ranks×1 partition of the deck's mesh.
func launch(w workload, d *deck.Deck, fn func(comm.Communicator) error) error {
	if w.Backend == "serial" {
		return fn(comm.NewSerial())
	}
	if d.Dims == 3 {
		return fmt.Errorf("workload %s: no multi-rank 3D row in the table", w.Name)
	}
	part, err := grid.NewPartition(d.XCells, d.YCells, w.Ranks, 1)
	if err != nil {
		return err
	}
	switch w.Backend {
	case "hub":
		return comm.Run(part, func(c *comm.RankComm) error { return fn(c) })
	case "tcp":
		return comm.RunTCP(part, fn)
	}
	return fmt.Errorf("workload %s: unknown backend %q", w.Name, w.Backend)
}

// drive runs one rank from a built instance to the end of the checks.
func drive[F, B any](w workload, cfg repConfig, s *system[F, B], pool *par.Pool, c comm.Communicator, t0 time.Time, out *rankOut) error {
	out.readyS = time.Since(t0).Seconds()
	rec := out.rec

	out.ie0 = s.summarise().InternalEnergy
	rhs := s.newField() // the last step's right-hand side, for the true residual
	c.Barrier()         // every rank enters the solve together
	before := *c.Trace()
	out.solve[0] = rec.mark()
	for i := 0; i < w.Steps; i++ {
		if i == w.Steps-1 {
			s.energyToU(s.density, s.energy, rhs)
		}
		end := rec.begin("core.step")
		t := time.Now()
		res, err := s.step()
		dt := time.Since(t)
		end()
		if err != nil {
			return err
		}
		out.stepS = append(out.stepS, dt.Seconds())
		out.iters += res.Iterations
		out.inner += res.TotalInner
	}
	out.solve[1] = rec.mark()
	out.counts = traceDelta(c.Trace(), &before)

	out.ie1 = s.summarise().InternalEnergy
	// True residual of the last step, relative like the solver's own stop
	// test to the residual of the step's initial guess u = rhs.
	if err := s.exchange(1, s.u, rhs); err != nil {
		return err
	}
	r := s.newField()
	s.residual(pool, s.interior, s.u, rhs, r)
	rr := s.dot(pool, s.interior, r, r)
	s.residual(pool, s.interior, rhs, rhs, r)
	rr, rr0 := c.AllReduceSum2(rr, s.dot(pool, s.interior, r, r))
	out.residual = math.Sqrt(rr / rr0)

	if cfg.Traced {
		layers, err := s.replay(pool, c, cfg, r, rhs)
		if err != nil {
			return err
		}
		out.layers = layers
	}
	return nil
}

// traceDelta returns the operation counts accumulated since before.
func traceDelta(now, before *stats.Trace) stats.Trace {
	return stats.Trace{
		Matvecs: now.Matvecs - before.Matvecs, MatvecCells: now.MatvecCells - before.MatvecCells,
		VectorPasses: now.VectorPasses - before.VectorPasses, VectorCells: now.VectorCells - before.VectorCells,
		Reductions:    now.Reductions - before.Reductions,
		HaloExchanges: now.HaloExchanges - before.HaloExchanges,
		HaloMessages:  now.HaloMessages - before.HaloMessages, HaloBytes: now.HaloBytes - before.HaloBytes,
	}
}

// finishTrace turns the ranks' spans, counts and replays into the rep's
// per-layer metrics and writes the span file.
func finishTrace(w workload, cfg repConfig, outs []rankOut, parseS float64, res *repResult) error {
	L := outs[0].layers // replays: rank 0's (every rank ran them, so they saw the solve's contention)
	L["deck.parse_s"] = parseS

	tf := traceFile{Workload: w.Name, Seed: cfg.Seed}
	var waitMin, waitMax float64
	for rank, o := range outs {
		rc := rankComm{
			Rank:         rank,
			ReduceRounds: o.counts.Reductions,
			Exchanges:    o.counts.HaloExchanges,
			HaloMsgs:     o.counts.HaloMessages,
			HaloBytes:    o.counts.HaloBytes,
		}
		for _, sp := range o.rec.spans[o.solve[0]:o.solve[1]] {
			switch sp.Name {
			case "comm.reduce", "comm.reduce_finish":
				rc.ReduceWaitS += float64(sp.End-sp.Start) / 1e9
			case "comm.exchange":
				rc.ExchangeS += float64(sp.End-sp.Start) / 1e9
			}
		}
		res.Ranks = append(res.Ranks, rc)
		wait := rc.ReduceWaitS + rc.ExchangeS
		if rank == 0 || wait < waitMin {
			waitMin = wait
		}
		waitMax = math.Max(waitMax, wait)
		L["comm.reduce_wait_s"] = math.Max(L["comm.reduce_wait_s"], rc.ReduceWaitS)
		L["comm.exchange_s"] = math.Max(L["comm.exchange_s"], rc.ExchangeS)
		L["comm.connect_s"] = math.Max(L["comm.connect_s"], o.connectS())
		tf.Ranks = append(tf.Ranks, rankTrace{Rank: rank, Layers: o.rec.totals(), Spans: o.rec.spans})
	}
	c0 := outs[0].counts
	L["comm.reduce_rounds"] = float64(c0.Reductions)
	L["comm.exchanges"] = float64(c0.HaloExchanges)
	L["comm.halo_msgs"] = float64(c0.HaloMessages)
	L["comm.halo_bytes"] = float64(c0.HaloBytes)
	L["comm.rank_skew_s"] = waitMax - waitMin

	// Sweep time is not measured inside the solve: it is the trace's cell
	// counts priced at the replayed ns/cell (vector passes at the PPCG
	// inner sweep's price on a PPCG deck, at the mean of the two CG
	// sweeps' otherwise).
	vec := (L["kernels.cg_dirs_ns_per_cell"] + L["kernels.cg_update_ns_per_cell"]) / 2
	if res.Inner > 0 {
		vec = L["kernels.ppcg_inner_ns_per_cell"]
	}
	sweepS := (float64(c0.MatvecCells)*L["stencil.matvec_ns_per_cell"] + float64(c0.VectorCells)*vec) / 1e9
	L["kernels.sweep_share"] = sweepS / res.SolveS
	L["solver.self_s"] = res.SolveS - waitMax - sweepS
	L["solver.iterations"] = float64(res.Iters)
	L["solver.inner_iterations"] = float64(res.Inner)
	L["solver.cell_iters_per_s"] = float64(res.Cells) * float64(res.Iters+res.Inner) / res.SolveS
	L["solver.true_residual_rel"] = res.Residual
	L["core.step_s"] = median(res.StepS)
	L["core.step_max_s"] = slices.Max(res.StepS)

	for k, v := range hostProbes(cfg.Tiny) {
		L[k] = v
	}
	res.Layers = L
	return writeTraceFile(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json"), tf)
}

// connectS is the rank's rendezvous cost: the time until its rank
// function ran (listeners, goroutines) plus its first exchange, where
// the TCP backend dials its lazy connections. Both sit inside set-up.
func (o *rankOut) connectS() float64 {
	for _, sp := range o.rec.spans {
		if sp.Name == "comm.exchange" {
			return o.enteredS + float64(sp.End-sp.Start)/1e9
		}
	}
	return o.enteredS
}

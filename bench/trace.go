package main

import (
	"encoding/json"
	"os"
	"time"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/stats"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the rep's epoch; Parent indexes the enclosing span on the same
// rank (-1 for a root), so a span's self time is its duration minus its
// children's.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder keeps one rank's spans in memory. A nil *recorder records
// nothing, so untraced reps run the same code with tracing off. It is
// owned by the rank's goroutine and needs no locking.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns the function that closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent})
	r.open = append(r.open, id)
	return func() {
		r.spans[id].End = int64(time.Since(r.epoch))
		r.open = r.open[:len(r.open)-1]
	}
}

// mark returns the index the next span will get, to delimit a phase.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// layerTotals sums count, wall and self time per span name.
type layerTotals struct {
	Count int     `json:"count"`
	WallS float64 `json:"wall_s"`
	SelfS float64 `json:"self_s"`
}

func (r *recorder) totals() map[string]*layerTotals {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range r.spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotals{}
			out[s.Name] = t
		}
		t.Count++
		t.WallS += float64(s.End-s.Start) / 1e9
		t.SelfS += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// traceFile is what a traced rep writes to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Ranks    []rankTrace `json:"ranks"`
}

type rankTrace struct {
	Rank   int                     `json:"rank"`
	Layers map[string]*layerTotals `json:"layers"`
	Spans  []span                  `json:"spans"`
}

func writeTraceFile(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedComm is the timing decorator around a rank's communicator: it
// forwards every Communicator method and records a span (and so a count
// and a wall time) per call. Blocking reductions and the Finish of a
// split-phase one are "reduce wait"; Start is recorded separately
// because it must not block.
type timedComm struct {
	inner comm.Communicator
	rec   *recorder
}

var _ comm.Communicator = (*timedComm)(nil)

func (t *timedComm) Rank() int                        { return t.inner.Rank() }
func (t *timedComm) Size() int                        { return t.inner.Size() }
func (t *timedComm) Physical() comm.PhysicalSides     { return t.inner.Physical() }
func (t *timedComm) Physical3D() comm.PhysicalSides3D { return t.inner.Physical3D() }
func (t *timedComm) Trace() *stats.Trace              { return t.inner.Trace() }

func (t *timedComm) Exchange(depth int, fields ...*grid.Field2D) error {
	defer t.rec.begin("comm.exchange")()
	return t.inner.Exchange(depth, fields...)
}

func (t *timedComm) Exchange3D(depth int, fields ...*grid.Field3D) error {
	defer t.rec.begin("comm.exchange")()
	return t.inner.Exchange3D(depth, fields...)
}

func (t *timedComm) AllReduceSum(x float64) float64 {
	defer t.rec.begin("comm.reduce")()
	return t.inner.AllReduceSum(x)
}

func (t *timedComm) AllReduceSum2(x, y float64) (float64, float64) {
	defer t.rec.begin("comm.reduce")()
	return t.inner.AllReduceSum2(x, y)
}

func (t *timedComm) AllReduceSumN(vals []float64) []float64 {
	defer t.rec.begin("comm.reduce")()
	return t.inner.AllReduceSumN(vals)
}

func (t *timedComm) AllReduceMax(x float64) float64 {
	defer t.rec.begin("comm.reduce")()
	return t.inner.AllReduceMax(x)
}

func (t *timedComm) AllReduceSumNStart(vals []float64) comm.ReduceHandle {
	defer t.rec.begin("comm.reduce_start")()
	return timedHandle{t.inner.AllReduceSumNStart(vals), t.rec}
}

func (t *timedComm) AllReduceSumNStartTagged(tag int, vals []float64) comm.ReduceHandle {
	defer t.rec.begin("comm.reduce_start")()
	return timedHandle{t.inner.AllReduceSumNStartTagged(tag, vals), t.rec}
}

func (t *timedComm) Barrier() {
	defer t.rec.begin("comm.barrier")()
	t.inner.Barrier()
}

func (t *timedComm) GatherInterior(local, dst *grid.Field2D) error {
	defer t.rec.begin("comm.gather")()
	return t.inner.GatherInterior(local, dst)
}

func (t *timedComm) GatherInterior3D(local, dst *grid.Field3D) error {
	defer t.rec.begin("comm.gather")()
	return t.inner.GatherInterior3D(local, dst)
}

// timedHandle times the blocking half of a split-phase reduction: the
// round was counted at Start, so Finish is its own span name and only
// adds wait.
type timedHandle struct {
	inner comm.ReduceHandle
	rec   *recorder
}

func (h timedHandle) Finish() []float64 {
	defer h.rec.begin("comm.reduce_finish")()
	return h.inner.Finish()
}

// Package stats collects operation counts and timings from solver runs.
// The counts are the raw material for the strong-scaling performance model
// (internal/model): a solver run records how many matrix-vector products,
// vector-kernel passes, global reductions and halo exchanges (by depth and
// volume) it performed, and the model prices that trace on a machine
// description at any node count.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Trace accumulates the communication- and bandwidth-relevant operations
// of one solve. The zero value is ready to use. A Trace is owned by a
// single rank and must not be shared between goroutines.
type Trace struct {
	// Matvecs counts sparse matrix-vector products (A·p applications);
	// MatvecCells is the total number of cells they covered (matrix
	// powers applies A on extended bounds, so cells > interior·matvecs).
	Matvecs     int
	MatvecCells int64

	// VectorPasses counts AXPY-class single-pass vector kernels;
	// VectorCells is their total cell coverage.
	VectorPasses int
	VectorCells  int64

	// Dots counts local dot-product kernel passes; DotCells their coverage.
	Dots     int
	DotCells int64

	// Reductions counts global all-reduce operations (the scaling
	// bottleneck of CG per §III-A); ReducedValues is the total number of
	// scalars reduced (fused reductions reduce several per operation).
	Reductions    int
	ReducedValues int

	// HaloExchanges counts exchange operations; HaloMessages point-to-point
	// messages; HaloBytes total payload bytes. ExchangesByDepth histograms
	// exchange operations by halo depth.
	HaloExchanges    int
	HaloMessages     int
	HaloBytes        int64
	ExchangesByDepth map[int]int

	// PrecondApplies counts preconditioner applications, PrecondCells
	// their cell coverage.
	PrecondApplies int
	PrecondCells   int64
}

// AddExchange records one halo exchange of the given depth, message count
// and payload volume.
func (t *Trace) AddExchange(depth, messages int, bytes int64) {
	t.HaloExchanges++
	t.HaloMessages += messages
	t.HaloBytes += bytes
	if t.ExchangesByDepth == nil {
		t.ExchangesByDepth = make(map[int]int)
	}
	t.ExchangesByDepth[depth]++
}

// AddMatvec records one A·p application over cells cells.
func (t *Trace) AddMatvec(cells int) {
	t.Matvecs++
	t.MatvecCells += int64(cells)
}

// AddVectorPass records one AXPY-class kernel pass over cells cells.
func (t *Trace) AddVectorPass(cells int) {
	t.VectorPasses++
	t.VectorCells += int64(cells)
}

// AddDot records one local dot-product pass over cells cells.
func (t *Trace) AddDot(cells int) {
	t.Dots++
	t.DotCells += int64(cells)
}

// AddReduction records one global reduction of n scalars.
func (t *Trace) AddReduction(n int) {
	t.Reductions++
	t.ReducedValues += n
}

// AddPrecond records one preconditioner application over cells cells.
func (t *Trace) AddPrecond(cells int) {
	t.PrecondApplies++
	t.PrecondCells += int64(cells)
}

// Merge adds o's counts into t.
func (t *Trace) Merge(o *Trace) {
	t.Matvecs += o.Matvecs
	t.MatvecCells += o.MatvecCells
	t.VectorPasses += o.VectorPasses
	t.VectorCells += o.VectorCells
	t.Dots += o.Dots
	t.DotCells += o.DotCells
	t.Reductions += o.Reductions
	t.ReducedValues += o.ReducedValues
	t.HaloExchanges += o.HaloExchanges
	t.HaloMessages += o.HaloMessages
	t.HaloBytes += o.HaloBytes
	t.PrecondApplies += o.PrecondApplies
	t.PrecondCells += o.PrecondCells
	for d, n := range o.ExchangesByDepth {
		if t.ExchangesByDepth == nil {
			t.ExchangesByDepth = make(map[int]int)
		}
		t.ExchangesByDepth[d] += n
	}
}

// Reset zeroes all counters.
func (t *Trace) Reset() { *t = Trace{} }

func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "matvecs=%d(%d cells) dots=%d reductions=%d(%d vals) exchanges=%d(msgs=%d bytes=%d)",
		t.Matvecs, t.MatvecCells, t.Dots, t.Reductions, t.ReducedValues,
		t.HaloExchanges, t.HaloMessages, t.HaloBytes)
	if len(t.ExchangesByDepth) > 0 {
		depths := make([]int, 0, len(t.ExchangesByDepth))
		for d := range t.ExchangesByDepth {
			depths = append(depths, d)
		}
		sort.Ints(depths)
		b.WriteString(" byDepth={")
		for i, d := range depths {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", d, t.ExchangesByDepth[d])
		}
		b.WriteByte('}')
	}
	return b.String()
}

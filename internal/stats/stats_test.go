package stats

import (
	"strings"
	"testing"
)

func TestTraceAccumulation(t *testing.T) {
	var tr Trace
	tr.AddMatvec(100)
	tr.AddMatvec(120) // extended bounds
	tr.AddVectorPass(100)
	tr.AddDot(100)
	tr.AddReduction(1)
	tr.AddReduction(2)
	tr.AddExchange(4, 2, 640)
	tr.AddExchange(4, 2, 640)
	tr.AddExchange(1, 4, 80)
	tr.AddPrecond(100)

	if tr.Matvecs != 2 || tr.MatvecCells != 220 {
		t.Errorf("matvecs %d/%d", tr.Matvecs, tr.MatvecCells)
	}
	if tr.Reductions != 2 || tr.ReducedValues != 3 {
		t.Errorf("reductions %d/%d", tr.Reductions, tr.ReducedValues)
	}
	if tr.HaloExchanges != 3 || tr.HaloMessages != 8 || tr.HaloBytes != 1360 {
		t.Errorf("halo %d/%d/%d", tr.HaloExchanges, tr.HaloMessages, tr.HaloBytes)
	}
	if tr.ExchangesByDepth[4] != 2 || tr.ExchangesByDepth[1] != 1 {
		t.Errorf("byDepth %v", tr.ExchangesByDepth)
	}
	if tr.PrecondApplies != 1 || tr.PrecondCells != 100 {
		t.Errorf("precond %d/%d", tr.PrecondApplies, tr.PrecondCells)
	}
}

func TestTraceMergeAndReset(t *testing.T) {
	var a, b Trace
	a.AddMatvec(10)
	a.AddExchange(2, 1, 16)
	b.AddMatvec(5)
	b.AddExchange(2, 3, 48)
	b.AddExchange(8, 1, 512)
	a.Merge(&b)
	if a.Matvecs != 2 || a.MatvecCells != 15 {
		t.Errorf("merged matvecs %d/%d", a.Matvecs, a.MatvecCells)
	}
	if a.ExchangesByDepth[2] != 2 || a.ExchangesByDepth[8] != 1 {
		t.Errorf("merged byDepth %v", a.ExchangesByDepth)
	}
	a.Reset()
	if a.Matvecs != 0 || a.HaloBytes != 0 || len(a.ExchangesByDepth) != 0 {
		t.Error("reset must clear everything")
	}
}

func TestTraceMergeIntoEmpty(t *testing.T) {
	var a, b Trace
	b.AddExchange(1, 1, 8)
	a.Merge(&b) // a.ExchangesByDepth is nil; Merge must allocate
	if a.ExchangesByDepth[1] != 1 {
		t.Error("merge into empty trace lost depth histogram")
	}
}

func TestTraceString(t *testing.T) {
	var tr Trace
	tr.AddMatvec(4)
	tr.AddExchange(2, 1, 64)
	s := tr.String()
	for _, want := range []string{"matvecs=1", "exchanges=1", "byDepth={2:1}"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

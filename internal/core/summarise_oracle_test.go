package core

import (
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

// The field summaries as they were before the row walker: one 2D loop and
// one 3D loop over the interior, then the three reductions. Summarise must
// match them bit for bit, serial and on hub ranks.

func oracleSummarise(inst *Instance) Summary {
	g := inst.Grid
	cellVol := g.CellArea()
	vol := cellVol * float64(g.Cells())
	var mass, ie, temp float64
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			mass += inst.Density.At(j, k) * cellVol
			ie += inst.Density.At(j, k) * inst.Energy.At(j, k) * cellVol
			temp += inst.Energy.At(j, k) * cellVol
		}
	}
	return oracleReduce(inst.Comm, vol, mass, ie, temp, inst.StepCount(), inst.Time())
}

func oracleSummarise3D(inst *Instance3D) Summary {
	g := inst.Grid
	cellVol := g.CellVolume()
	vol := cellVol * float64(g.Cells())
	var mass, ie, temp float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				mass += inst.Density.At(i, j, k) * cellVol
				ie += inst.Density.At(i, j, k) * inst.Energy.At(i, j, k) * cellVol
				temp += inst.Energy.At(i, j, k) * cellVol
			}
		}
	}
	return oracleReduce(inst.Comm, vol, mass, ie, temp, inst.StepCount(), inst.Time())
}

func oracleReduce(c comm.Communicator, vol, mass, ie, temp float64, steps int, time float64) Summary {
	gvol := c.AllReduceSum(vol)
	gmass, gie := c.AllReduceSum2(mass, ie)
	gtemp := c.AllReduceSum(temp)
	return Summary{Volume: gvol, Mass: gmass, InternalEnergy: gie, AvgTemperature: gtemp / gvol,
		Steps: steps, SimTime: time}
}

// checkSummary compares Summarise with its oracle, both collective,
// before and after one step. It may run on a rank goroutine, so it
// reports a failed step instead of stopping the test.
func checkSummary(t *testing.T, label string, run func(int) (Summary, error), got, want func() Summary) error {
	for step := 0; step < 2; step++ {
		if g, w := got(), want(); g != w {
			t.Errorf("%s after %d steps: Summarise = %+v, oracle %+v", label, step, g, w)
		}
		if step == 0 {
			if _, err := run(1); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestSummariseMatchesOracle(t *testing.T) {
	d := problem.BenchmarkDeck(20)
	d3 := problem.BenchmarkDeck3D(10)
	t.Run("2D/serial", func(t *testing.T) {
		inst, err := NewSerial(d, par.Serial)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSummary(t, "2D", inst.Run, inst.Summarise, func() Summary { return oracleSummarise(inst) }); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("3D/serial", func(t *testing.T) {
		inst, err := NewSerial3D(d3, par.Serial)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSummary(t, "3D", inst.Run, inst.Summarise, func() Summary { return oracleSummarise3D(inst) }); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("2D/hub2x2", func(t *testing.T) {
		part, err := grid.NewPartition(d.XCells, d.YCells, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		gg := grid.MustGrid2D(d.XCells, d.YCells, HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax)
		err = comm.Run(part, func(c *comm.RankComm) error {
			e := part.ExtentOf(c.Rank())
			sub, err := gg.Sub(e.X0, e.X1, e.Y0, e.Y1)
			if err != nil {
				return err
			}
			inst, err := NewInstance(d, sub, par.Serial, c)
			if err != nil {
				return err
			}
			return checkSummary(t, "2D rank", inst.Run, inst.Summarise, func() Summary { return oracleSummarise(inst) })
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("3D/hub2x2x1", func(t *testing.T) {
		part, err := grid.NewPartition3D(d3.XCells, d3.YCells, d3.ZCells, 2, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		gg, err := grid.NewGrid3D(d3.XCells, d3.YCells, d3.ZCells, HaloFor(d3), d3.XMin, d3.XMax, d3.YMin, d3.YMax, d3.ZMin, d3.ZMax)
		if err != nil {
			t.Fatal(err)
		}
		err = comm.Run(part, func(c *comm.RankComm) error {
			e := part.ExtentOf(c.Rank())
			sub, err := gg.Sub(e.X0, e.X1, e.Y0, e.Y1, e.Z0, e.Z1)
			if err != nil {
				return err
			}
			inst, err := NewInstance3D(d3, sub, par.Serial, c)
			if err != nil {
				return err
			}
			return checkSummary(t, "3D rank", inst.Run, inst.Summarise, func() Summary { return oracleSummarise3D(inst) })
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

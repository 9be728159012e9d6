package solver

import (
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// A field list passed straight on through the system's interface call
// escapes, and was allocated at every engine exchange — once per
// multi-rank CG iteration. These pins hold a warmed engine's exchange on
// a 2-rank Hub at 0 allocations, with one field (CG's r) and two (PPCG's
// sd and w).

// TestEngineExchangeAllocatesNothing is the pin on the 2D system.
func TestEngineExchangeAllocatesNothing(t *testing.T) {
	part := grid.MustPartition(32, 16, 2, 1)
	gg := grid.UnitGrid2D(32, 16, 2)
	engineExchangeAllocs(t, func(fn func(c *comm.RankComm) error) error { return comm.Run(part, fn) },
		func(c *comm.RankComm) (func(fields int) error, error) {
			ext := part.ExtentOf(c.Rank())
			sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
			if err != nil {
				return nil, err
			}
			den := grid.NewField2D(sub)
			den.Fill(1)
			phys := c.Physical()
			op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity,
				stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
			if err != nil {
				return nil, err
			}
			u, rhs, a, b := grid.NewField2D(sub), grid.NewField2D(sub), grid.NewField2D(sub), grid.NewField2D(sub)
			o := Options{Comm: c, Pool: par.Serial}
			e := newEngine[*grid.Field2D, grid.Bounds](newSys2D(Problem{Op: op, U: u, RHS: rhs}, o, new(Workspace)), o, u, rhs)
			return func(fields int) error {
				if fields == 1 {
					return e.exchange(1, a)
				}
				return e.exchange(2, a, b)
			}, nil
		})
}

// TestEngineExchange3DAllocatesNothing is the pin on the 3D system.
func TestEngineExchange3DAllocatesNothing(t *testing.T) {
	part := grid.MustPartition3D(8, 8, 8, 1, 1, 2)
	gg := grid.UnitGrid3D(8, 8, 8, 2)
	engineExchangeAllocs(t, func(fn func(c *comm.RankComm) error) error { return comm.Run3D(part, fn) },
		func(c *comm.RankComm) (func(fields int) error, error) {
			ext := part.ExtentOf(c.Rank())
			sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1, ext.Z0, ext.Z1)
			if err != nil {
				return nil, err
			}
			den := grid.NewField3D(sub)
			den.Fill(1)
			phys := c.Physical3D()
			op, err := stencil.BuildOperator3D(par.Serial, den, 0.04, stencil.Conductivity,
				stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
					Up: phys.Up, Back: phys.Back, Front: phys.Front})
			if err != nil {
				return nil, err
			}
			u, rhs, a, b := grid.NewField3D(sub), grid.NewField3D(sub), grid.NewField3D(sub), grid.NewField3D(sub)
			o := Options{Comm: c, Pool: par.Serial}
			e := newEngine[*grid.Field3D, grid.Bounds3D](newSys3D(Problem3D{Op: op, U: u, RHS: rhs}, o, new(Workspace)), o, u, rhs)
			return func(fields int) error {
				if fields == 1 {
					return e.exchange(1, a)
				}
				return e.exchange(2, a, b)
			}, nil
		})
}

// engineExchangeAllocs runs, on every rank, the exchange that setup
// builds for that rank, and fails unless a warmed one allocates nothing.
// AllocsPerRun counts the whole process, so rank 1's share is in it.
func engineExchangeAllocs(t *testing.T, run func(func(c *comm.RankComm) error) error,
	setup func(c *comm.RankComm) (func(fields int) error, error)) {
	const runs = 100
	for _, fields := range []int{1, 2} {
		var allocs float64
		err := run(func(c *comm.RankComm) error {
			ex, err := setup(c)
			if err != nil {
				return err
			}
			var exErr error
			exchange := func() {
				if err := ex(fields); err != nil {
					exErr = err
				}
			}
			for range 10 {
				exchange()
			}
			if c.Rank() == 0 {
				allocs = testing.AllocsPerRun(runs, exchange)
			} else {
				for range runs + 1 { // AllocsPerRun makes one warm-up call
					exchange()
				}
			}
			return exErr
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("a warmed %d-field engine exchange allocates %v times per call, want 0", fields, allocs)
		}
	}
}

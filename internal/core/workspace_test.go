package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
	"tealeaf/internal/solver"
)

// An instance keeps one solver workspace across its time steps: the work
// fields are allocated by the first Step and cleared whole, halos
// included, by every later one. These tests hold a reused workspace to
// what fresh fields gave: every step's iteration count and the bits of
// every field after every step, pinned for each solver configuration in
// 2D and 3D, serial and on two Hub ranks; and after the first Step, a
// Step that allocates less than one field's bytes.

// stepCases are the solver configurations a workspace serves, each on
// the stiff deck, where PPCG runs well past its bootstrap, or (stiff
// false) on the benchmark deck at a short time step, where Chebyshev
// and Jacobi converge in a few dozen iterations.
var stepCases = []struct {
	name  string
	stiff bool
	set   func(d *deck.Deck)
}{
	{"cg-none", true, func(d *deck.Deck) { d.Solver, d.Precond = "cg", "none" }},
	{"cg-jac_diag", true, func(d *deck.Deck) { d.Solver, d.Precond = "cg", "jac_diag" }},
	{"cg-jac_block", true, func(d *deck.Deck) { d.Solver, d.Precond = "cg", "jac_block" }},
	{"cg-defl", true, func(d *deck.Deck) { d.Solver, d.Precond, d.UseDeflation, d.DeflationBlocks = "cg", "none", true, 4 }},
	{"ppcg-d1", true, func(d *deck.Deck) { d.Solver, d.Precond = "ppcg", "jac_diag" }},
	{"ppcg-d4", true, func(d *deck.Deck) { d.Solver, d.Precond, d.HaloDepth = "ppcg", "none", 4 }},
	{"ppcg-jac_block", true, func(d *deck.Deck) { d.Solver, d.Precond = "ppcg", "jac_block" }},
	{"ppcg-defl", true, func(d *deck.Deck) {
		d.Solver, d.Precond, d.UseDeflation, d.DeflationBlocks = "ppcg", "jac_diag", true, 4
	}},
	{"chebyshev", false, func(d *deck.Deck) { d.Solver, d.Precond, d.EigenCGIters, d.Eps = "chebyshev", "jac_diag", 4, 1e-12 }},
	{"jacobi", false, func(d *deck.Deck) { d.Solver, d.Precond, d.InitialTimestep = "jacobi", "none", 0.0004 }},
}

// stepDeck is a case's deck at n cells a side.
func stepDeck(stiff bool, set func(*deck.Deck), dims, n int) *deck.Deck {
	var d *deck.Deck
	switch {
	case stiff && dims == 3:
		d = problem.StiffDeck3D(n)
	case stiff:
		d = problem.StiffDeck(n)
	case dims == 3:
		d = problem.BenchmarkDeck3D(n)
	default:
		d = problem.BenchmarkDeck(n)
	}
	set(d)
	return d
}

// stepper is one rank's instance, 2D or 3D: its Step and the storage of
// its density, energy and u.
type stepper struct {
	step   func() (solver.Result, error)
	fields func() [][]float64
}

func stepper2D(inst *Instance) stepper {
	return stepper{inst.Step, func() [][]float64 { return [][]float64{inst.Density.Data, inst.Energy.Data, inst.U.Data} }}
}

func stepper3D(inst *Instance3D) stepper {
	return stepper{inst.Step, func() [][]float64 { return [][]float64{inst.Density.Data, inst.Energy.Data, inst.U.Data} }}
}

// stepLayout is the px×py(×1) rank grid a run decomposes over, on Hub
// ranks or (tcp) on loopback TCP ranks.
type stepLayout struct {
	px, py int
	tcp    bool
}

// ranks is the layout's rank count.
func (l stepLayout) ranks() int { return l.px * l.py }

// newStepper builds rank c.Rank()'s instance of d over the layout's
// partition.
func newStepper(d *deck.Deck, l stepLayout, c comm.Communicator) (stepper, error) {
	if d.Dims == 3 {
		gg, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
		if err != nil {
			return stepper{}, err
		}
		part, err := grid.NewPartition3D(d.XCells, d.YCells, d.ZCells, l.px, l.py, 1)
		if err != nil {
			return stepper{}, err
		}
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1, ext.Z0, ext.Z1)
		if err != nil {
			return stepper{}, err
		}
		inst, err := NewInstance3D(d, sub, par.Serial, c)
		if err != nil {
			return stepper{}, err
		}
		return stepper3D(inst), nil
	}
	gg, err := grid.NewGrid2D(d.XCells, d.YCells, HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax)
	if err != nil {
		return stepper{}, err
	}
	part, err := grid.NewPartition(d.XCells, d.YCells, l.px, l.py)
	if err != nil {
		return stepper{}, err
	}
	ext := part.ExtentOf(c.Rank())
	sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
	if err != nil {
		return stepper{}, err
	}
	inst, err := NewInstance(d, sub, par.Serial, c)
	if err != nil {
		return stepper{}, err
	}
	return stepper2D(inst), nil
}

// stepRun runs steps time steps of d, serially (ranks 1) or on ranks Hub
// ranks, and returns rank 0's iteration count per step and one hash of
// every rank's field bits after every step.
func stepRun(d *deck.Deck, ranks, steps int) ([]int, uint64, error) {
	return stepRunOn(d, stepLayout{px: ranks, py: 1}, steps)
}

// stepRunOn is stepRun over the ranks of layout l.
func stepRunOn(d *deck.Deck, l stepLayout, steps int) ([]int, uint64, error) {
	ranks := l.ranks()
	iters := make([]int, steps)
	sums := make([]uint64, ranks)
	body := func(c comm.Communicator) error {
		s, err := newStepper(d, l, c)
		if err != nil {
			return err
		}
		h := fnv.New64a()
		var buf [8]byte
		for k := range steps {
			res, err := s.step()
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				iters[k] = res.Iterations
			}
			for _, f := range s.fields() {
				for _, v := range f {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
		sums[c.Rank()] = h.Sum64()
		return nil
	}
	var err error
	switch {
	case ranks == 1:
		err = body(comm.NewSerial())
	case d.Dims == 3:
		part, perr := grid.NewPartition3D(d.XCells, d.YCells, d.ZCells, l.px, l.py, 1)
		if perr != nil {
			return nil, 0, perr
		}
		if l.tcp {
			err = comm.RunTCP3D(part, body)
		} else {
			err = comm.Run3D(part, func(c *comm.RankComm) error { return body(c) })
		}
	default:
		part, perr := grid.NewPartition(d.XCells, d.YCells, l.px, l.py)
		if perr != nil {
			return nil, 0, perr
		}
		if l.tcp {
			err = comm.RunTCP(part, body)
		} else {
			err = comm.Run(part, func(c *comm.RankComm) error { return body(c) })
		}
	}
	if err != nil {
		return nil, 0, err
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range sums {
		binary.LittleEndian.PutUint64(buf[:], s)
		h.Write(buf[:])
	}
	return iters, h.Sum64(), nil
}

// stepPin is one run's pinned outcome: the iteration count of each step
// and the hash of every field's bits after every step.
type stepPin struct {
	iters []int
	hash  uint64
}

// stepPins were captured with a fresh set of work fields per solve (the
// engines before the workspace); a reused workspace must reproduce them
// bit for bit. The ppcg hashes were re-pinned when PPCG's outer iteration
// moved onto the CG engine (every iteration count stayed); a fresh
// workspace per step reproduces them too.
var stepPins = map[string]stepPin{
	"cg-defl/2d/ranks=1":        {[]int{69, 69, 53}, 0x63880ff9ede510fe},
	"cg-defl/2d/ranks=2":        {[]int{69, 69, 53}, 0x323330282b3fb6e4},
	"cg-defl/3d/ranks=1":        {[]int{34, 34, 24}, 0x8b51942d930fee35},
	"cg-defl/3d/ranks=2":        {[]int{34, 34, 24}, 0x9de9a92072a149b9},
	"cg-jac_block/2d/ranks=1":   {[]int{163, 165, 148}, 0x7141aa5485af2579},
	"cg-jac_block/2d/ranks=2":   {[]int{163, 165, 148}, 0x9e8670de4038abc8},
	"cg-jac_block/3d/ranks=1":   {[]int{96, 98, 84}, 0xe0df20c7f6e9508e},
	"cg-jac_block/3d/ranks=2":   {[]int{96, 98, 84}, 0xec12433db8322b78},
	"cg-jac_diag/2d/ranks=1":    {[]int{156, 157, 140}, 0x62ad22bbb3bb8d7},
	"cg-jac_diag/2d/ranks=2":    {[]int{156, 157, 140}, 0x558385e594507ed7},
	"cg-jac_diag/3d/ranks=1":    {[]int{87, 86, 75}, 0xf7396955bf99746e},
	"cg-jac_diag/3d/ranks=2":    {[]int{87, 86, 75}, 0xbec7306b5b746780},
	"cg-none/2d/ranks=1":        {[]int{123, 123, 102}, 0xf5ff6ca3d048b8c9},
	"cg-none/2d/ranks=2":        {[]int{123, 123, 102}, 0x2b63ebc677cf7b7a},
	"cg-none/3d/ranks=1":        {[]int{72, 73, 58}, 0x615cb639fd6a1c38},
	"cg-none/3d/ranks=2":        {[]int{72, 73, 58}, 0x2341c2f2c1122c45},
	"chebyshev/2d/ranks=1":      {[]int{34, 34, 34}, 0x263c73f509a145b0},
	"chebyshev/2d/ranks=2":      {[]int{34, 34, 34}, 0xa4e1d13e7c640529},
	"chebyshev/3d/ranks=1":      {[]int{14, 14, 14}, 0xa741d936391fb9c},
	"chebyshev/3d/ranks=2":      {[]int{14, 14, 14}, 0x4b93e7ab15333cbd},
	"jacobi/2d/ranks=1":         {[]int{12, 12, 12}, 0x3ad733d6b5389b30},
	"jacobi/2d/ranks=2":         {[]int{12, 12, 12}, 0x9fb5bab48fc83cc1},
	"jacobi/3d/ranks=1":         {[]int{7, 7, 7}, 0x8f47df1a8a05331f},
	"jacobi/3d/ranks=2":         {[]int{7, 7, 7}, 0xf37ffdcd72e9c9cf},
	"ppcg-d1/2d/ranks=1":        {[]int{39, 51, 49}, 0x18953cb68d923e08},
	"ppcg-d1/2d/ranks=2":        {[]int{39, 51, 49}, 0x453a8646e37b190b},
	"ppcg-d1/3d/ranks=1":        {[]int{32, 35, 32}, 0xdceea754b267cffd},
	"ppcg-d1/3d/ranks=2":        {[]int{32, 35, 32}, 0xf165176a7b77d9b5},
	"ppcg-d4/2d/ranks=1":        {[]int{35, 45, 41}, 0x9fbc10a747dc2445},
	"ppcg-d4/2d/ranks=2":        {[]int{35, 45, 41}, 0x7bfc1372fa4d300b},
	"ppcg-d4/3d/ranks=1":        {[]int{29, 32, 28}, 0xfe3b3d517f34c81d},
	"ppcg-d4/3d/ranks=2":        {[]int{29, 32, 28}, 0x33512b275766271b},
	"ppcg-defl/2d/ranks=1":      {[]int{32, 32, 30}, 0x3111928fcea43c52},
	"ppcg-defl/2d/ranks=2":      {[]int{32, 32, 30}, 0x44dc723958e5a59d},
	"ppcg-defl/3d/ranks=1":      {[]int{25, 25, 22}, 0xb3a6e04dc5dfb2dc},
	"ppcg-defl/3d/ranks=2":      {[]int{25, 25, 22}, 0x5545c4c409d7d944},
	"ppcg-jac_block/2d/ranks=1": {[]int{38, 47, 43}, 0x5b66aa1b39a4d204},
	"ppcg-jac_block/2d/ranks=2": {[]int{38, 47, 43}, 0x52ffdf31e3420af7},
	"ppcg-jac_block/3d/ranks=1": {[]int{31, 33, 30}, 0x72c0303e5bf5a871},
	"ppcg-jac_block/3d/ranks=2": {[]int{31, 33, 30}, 0x8c26118dd4522861},
}

// TestWorkspaceStepsBitIdentical runs three steps of every case and
// compares each with its pin.
func TestWorkspaceStepsBitIdentical(t *testing.T) {
	const steps = 3
	for _, tc := range stepCases {
		for _, dims := range []int{2, 3} {
			n := 32
			if dims == 3 {
				n = 12
			}
			for _, ranks := range []int{1, 2} {
				name := fmt.Sprintf("%s/%dd/ranks=%d", tc.name, dims, ranks)
				iters, hash, err := stepRun(stepDeck(tc.stiff, tc.set, dims, n), ranks, steps)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				want, ok := stepPins[name]
				if !ok {
					t.Errorf("%s: no pin", name)
					continue
				}
				if fmt.Sprint(iters) != fmt.Sprint(want.iters) || hash != want.hash {
					t.Errorf("%s: iterations %v hash %#x, pinned %v %#x", name, iters, hash, want.iters, want.hash)
				}
			}
		}
	}
}

// TestStepAllocatesLessThanAField: once the first Step has allocated the
// workspace, a Step of any case allocates less than one field's bytes
// (runtime.MemStats.TotalAlloc across the call), in 2D and 3D, at the
// deck's own iteration budget. What is left is small and per iteration
// (the Result's slices, the par dispatch closures) — the stand-alone
// Chebyshev solve generates its coefficients as it consumes them — so
// the cases run on the benchmark deck, whose few dozen to few hundred
// iterations keep it well under a field of these sizes (at a tolerance
// tight enough for PPCG to run past its bootstrap).
func TestStepAllocatesLessThanAField(t *testing.T) {
	for _, tc := range stepCases {
		for _, dims := range []int{2, 3} {
			n := 192
			if dims == 3 {
				n = 40
			}
			name := fmt.Sprintf("%s/%dd", tc.name, dims)
			d := stepDeck(false, tc.set, dims, n)
			d.Eps = 1e-12
			var s stepper
			if dims == 3 {
				inst, err := NewSerial3D(d, par.Serial)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s = stepper3D(inst)
			} else {
				inst, err := NewSerial(d, par.Serial)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s = stepper2D(inst)
			}
			if _, err := s.step(); err != nil {
				t.Fatalf("%s: first step: %v", name, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := s.step()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: second step: %v", name, err)
			}
			field := uint64(8 * len(s.fields()[0]))
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s: %d iterations, %d B allocated, a field is %d B", name, res.Iterations, got, field)
			if got >= field {
				t.Errorf("%s: a Step after the first allocates %d B, a field is %d B", name, got, field)
			}
		}
	}
}

package deflate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
	"tealeaf/internal/stencil"
)

// This file tests the face-flux projector core (flux.go) against the
// form it replaced — materialise W·λ, run the full stencil on it, axpy —
// which survives here as the oracle, and pins the determinism contract.

func randomField2D(g *grid.Grid2D, seed int64) *grid.Field2D {
	f := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.Float64()*2 - 1
	}
	return f
}

func randomField3D(g *grid.Grid3D, seed int64) *grid.Field3D {
	f := grid.NewField3D(g)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.Float64()*2 - 1
	}
	return f
}

// randomOperator builds a 2D operator over a random density in
// [0.6, 4.6] — every face coefficient different.
func randomOperator(t testing.TB, n, halo int, dt float64) *stencil.Operator2D {
	t.Helper()
	g := grid.UnitGrid2D(n, n, halo)
	den := randomField2D(g, 11)
	for i, v := range den.Data {
		den.Data[i] = 2.6 + 2*v
	}
	den.ReflectHalos(halo)
	op, err := stencil.BuildOperator2D(par.Serial, den, dt, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func randomOperator3D(t testing.TB, n, halo int, dt float64) *stencil.Operator3D {
	t.Helper()
	g := grid.UnitGrid3D(n, n, n, halo)
	den := randomField3D(g, 11)
	for i, v := range den.Data {
		den.Data[i] = 2.6 + 2*v
	}
	den.ReflectHalos(halo)
	op, err := stencil.BuildOperator3D(par.Serial, den, dt, stencil.Conductivity, stencil.AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// fluxCase is one projector under test with the dimension erased: the
// shared core, and the old fill + Apply + Axpy correction as an oracle
// over flat data (w −= A·W·λ over the interior, λ = p.lbar + p.cl).
type fluxCase struct {
	name   string
	p      *projector
	oracle func(w []float64)
	// applyA computes A·v over the interior (v's halo reflected first).
	applyA func(v []float64) []float64
}

func case2D(t testing.TB, name string, pool *par.Pool, op *stencil.Operator2D, bx, by int) fluxCase {
	t.Helper()
	d, err := New(pool, nil, op, Geometry{}, Config{BX: bx, BY: by})
	if err != nil {
		t.Fatal(err)
	}
	g := op.Grid
	return fluxCase{name: name, p: &d.projector,
		oracle: func(w []float64) {
			wv, av := grid.NewField2D(g), grid.NewField2D(g)
			for k := -1; k <= g.NY; k++ {
				for j := -1; j <= g.NX; j++ {
					wv.Set(j, k, d.lbar+d.cl[d.block(1, k)*d.bst[1]+d.block(0, j)])
				}
			}
			op.Apply(par.Serial, g.Interior(), wv, av)
			kernels.Axpy(par.Serial, g.Interior(), -1, av, &grid.Field2D{Grid: g, Data: w})
		},
		applyA: func(v []float64) []float64 {
			vf, av := &grid.Field2D{Grid: g, Data: v}, grid.NewField2D(g)
			vf.ReflectHalos(1)
			op.Apply(par.Serial, g.Interior(), vf, av)
			return av.Data
		},
	}
}

func case3D(t testing.TB, name string, pool *par.Pool, op *stencil.Operator3D, bx, by, bz int) fluxCase {
	t.Helper()
	d, err := New3D(pool, nil, op, Geometry3D{}, Config{BX: bx, BY: by, BZ: bz})
	if err != nil {
		t.Fatal(err)
	}
	g := op.Grid
	return fluxCase{name: name, p: &d.projector,
		oracle: func(w []float64) {
			wv, av := grid.NewField3D(g), grid.NewField3D(g)
			for k := -1; k <= g.NZ; k++ {
				for j := -1; j <= g.NY; j++ {
					for i := -1; i <= g.NX; i++ {
						wv.Set(i, j, k, d.lbar+d.cl[d.block(2, k)*d.bst[2]+d.block(1, j)*d.bst[1]+d.block(0, i)])
					}
				}
			}
			op.Apply(par.Serial, g.Interior(), wv, av)
			kernels.Axpy3D(par.Serial, g.Interior(), -1, av, &grid.Field3D{Grid: g, Data: w})
		},
		applyA: func(v []float64) []float64 {
			vf, av := &grid.Field3D{Grid: g, Data: v}, grid.NewField3D(g)
			vf.ReflectHalos(1)
			op.Apply(par.Serial, g.Interior(), vf, av)
			return av.Data
		},
	}
}

func fluxCases(t testing.TB, pool *par.Pool) []fluxCase {
	return []fluxCase{
		case2D(t, "2D/random", pool, randomOperator(t, 37, 2, 0.7), 5, 3),
		case2D(t, "2D/stiff", pool, stiffOperator(t, 48), 4, 4),
		case3D(t, "3D/random", pool, randomOperator3D(t, 13, 2, 0.7), 3, 2, 4),
		case3D(t, "3D/stiff", pool, stiffOperator3D(t, 12), 3, 3, 3),
	}
}

// randomFlat fills a flat field of p's layout with values in [-1, 1).
func randomFlat(p *projector, seed int64) []float64 {
	w := make([]float64, len(p.k[0]))
	rng := rand.New(rand.NewSource(seed))
	for i := range w {
		w[i] = rng.Float64()*2 - 1
	}
	return w
}

// maxAbsInterior returns ‖v‖∞ over p's interior (b nil) or ‖a − b‖∞.
func maxAbsInterior(p *projector, a, b []float64) float64 {
	var m float64
	p.forRuns(p.whole(), func(o, i0, i1, _ int) {
		for i := o + i0; i < o+i1; i++ {
			v := a[i]
			if b != nil {
				v -= b[i]
			}
			m = math.Max(m, math.Abs(v))
		}
	})
	return m
}

// The flux correction must agree with the materialise-and-Apply oracle to
// 1e-9·‖w‖∞ on random and stiff operators, 2D and 3D, and its fused dot
// with the dot of the corrected field.
func TestFluxCorrectionMatchesApplyOracle(t *testing.T) {
	for _, c := range fluxCases(t, par.Serial) {
		p := c.p
		w := randomFlat(p, 3)
		x, m := randomFlat(p, 4), randomFlat(p, 5)
		p.solveCoarse(w)
		want := append([]float64(nil), w...)
		c.oracle(want)
		got := append([]float64(nil), w...)
		dot := p.correct(p.in, got, m, x)
		scale := maxAbsInterior(p, w, nil)
		if d := maxAbsInterior(p, got, want); d > 1e-9*scale {
			t.Errorf("%s: flux correction differs from the Apply oracle by %v (‖w‖∞ = %v)", c.name, d, scale)
		}
		var ref, abs float64
		p.forRuns(p.whole(), func(o, i0, i1, _ int) {
			for i := o + i0; i < o+i1; i++ {
				ref += m[i] * x[i] * got[i]
				abs += math.Abs(m[i] * x[i] * got[i])
			}
		})
		if math.Abs(dot-ref) > 1e-13*abs {
			t.Errorf("%s: fused dot %v, want %v", c.name, dot, ref)
		}
		// Identity-preconditioner lane and the dot-free path must write the
		// same bits.
		again := append([]float64(nil), w...)
		p.correct(p.in, again, nil, nil)
		ident := append([]float64(nil), w...)
		p.correct(p.in, ident, nil, x)
		if maxAbsInterior(p, again, got) != 0 || maxAbsInterior(p, ident, got) != 0 {
			t.Errorf("%s: the dot variants of the correction write different fields", c.name)
		}
	}
}

// oracleE assembles E = Wᵀ·A·W the pre-PR-14 way: one indicator field per
// block, a full stencil application, block sums of the result.
func oracleE(c fluxCase) []float64 {
	p := c.p
	nc := p.Subdomains()
	e := make([]float64, nc*nc)
	for col := 0; col < nc; col++ {
		ind := make([]float64, len(p.k[0]))
		p.forRuns(p.whole(), func(o, i0, i1, cb int) {
			if cb == col {
				for i := o + i0; i < o+i1; i++ {
					ind[i] = 1
				}
			}
		})
		av := c.applyA(ind)
		p.forRuns(p.whole(), func(o, i0, i1, cb int) {
			for i := o + i0; i < o+i1; i++ {
				e[cb*nc+col] += av[i]
			}
		})
	}
	return e
}

// The face-sum coarse matrix must be exactly symmetric and within 1e-12
// (relative to ‖E‖∞) of the old indicator-and-Apply assembly.
func TestFaceSumCoarseMatrix(t *testing.T) {
	for _, c := range fluxCases(t, par.Serial) {
		nc := c.p.Subdomains()
		e := c.p.coarse.e
		want := oracleE(c)
		var scale float64
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := 0; i < nc; i++ {
			for j := 0; j < nc; j++ {
				if e[i*nc+j] != e[j*nc+i] {
					t.Fatalf("%s: E[%d,%d] = %v but E[%d,%d] = %v: not exactly symmetric",
						c.name, i, j, e[i*nc+j], j, i, e[j*nc+i])
				}
				if d := math.Abs(e[i*nc+j] - want[i*nc+j]); d > 1e-12*scale {
					t.Errorf("%s: E[%d,%d] = %v, old assembly %v (|Δ| = %v)", c.name, i, j, e[i*nc+j], want[i*nc+j], d)
				}
			}
		}
	}
}

// Restriction and correction field must be bit-identical for every
// worker count: the restriction by construction (fixed-lane row sums
// folded in ascending row order), the correction because it is
// pointwise. The fused dot folds per band like every solver dot, so it
// is bit-identical run to run on one pool and agrees with the serial
// dot to rounding.
func TestFluxWorkerInvariance(t *testing.T) {
	type outcome struct {
		cr, w []float64
		dot   float64
	}
	run := func(pool *par.Pool) []outcome {
		var outs []outcome
		for _, c := range fluxCases(t, pool) {
			p := c.p
			w, x := randomFlat(p, 3), randomFlat(p, 4)
			p.restrict(w)
			cr := append([]float64(nil), p.cr...)
			p.solveCoarse(w)
			dot := p.correct(p.in, w, nil, x)
			outs = append(outs, outcome{cr, w, dot})
		}
		return outs
	}
	ref := run(par.Serial)
	names := fluxCases(t, par.Serial)
	for _, workers := range []int{1, 2, 4, 7} {
		pool := par.NewPool(workers).WithGrain(1)
		got, again := run(pool), run(pool)
		pool.Close()
		for i, o := range got {
			label := fmt.Sprintf("%s workers=%d", names[i].name, workers)
			for c := range o.cr {
				if o.cr[c] != ref[i].cr[c] {
					t.Errorf("%s: restriction of block %d = %v, serial %v", label, c, o.cr[c], ref[i].cr[c])
					break
				}
			}
			for q := range o.w {
				if o.w[q] != ref[i].w[q] {
					t.Errorf("%s: corrected field differs from serial at flat index %d", label, q)
					break
				}
			}
			if o.dot != again[i].dot {
				t.Errorf("%s: fused dot %v, then %v on the same pool", label, o.dot, again[i].dot)
			}
			if d := math.Abs(o.dot - ref[i].dot); d > 1e-12*(1+math.Abs(ref[i].dot)) {
				t.Errorf("%s: fused dot %v, serial %v", label, o.dot, ref[i].dot)
			}
		}
	}
}

// Projector quality on problem.StiffDeck (ROADMAP aim 3a): with E and the
// applied A·W one face-flux representation, Wᵀ·P·w must vanish and P must
// be idempotent to 1e-13 relative to ‖w‖∞, in 2D and 3D.
func TestProjectorQualityOnStiffDeck(t *testing.T) {
	check := func(c fluxCase) {
		p := c.p
		for seed, w := range [][]float64{c.applyA(randomFlat(p, 8)), randomFlat(p, 9)} {
			scale := maxAbsInterior(p, w, nil)
			p.project(p.in, w, nil, nil)
			pw := append([]float64(nil), w...)
			p.restrict(pw)
			for cb, s := range p.cr {
				if math.Abs(s) > 1e-13*scale {
					t.Errorf("%s w#%d: (Wᵀ·P·w)[%d] = %.3e, want ≤ 1e-13·‖w‖∞ = %.3e", c.name, seed, cb, s, 1e-13*scale)
					break
				}
			}
			p.project(p.in, w, nil, nil)
			if d := maxAbsInterior(p, w, pw); d > 1e-13*scale {
				t.Errorf("%s w#%d: ‖P·P·w − P·w‖∞ = %.3e, want ≤ 1e-13·‖w‖∞ = %.3e", c.name, seed, d, 1e-13*scale)
			}
		}
	}
	d2 := problem.StiffDeck(128)
	check(case2D(t, "StiffDeck/128²/8x8", par.Serial, deckOperator2D(t, d2), 8, 8))
	d3 := problem.StiffDeck3D(32)
	check(case3D(t, "StiffDeck3D/32³/4x4x4", par.Serial, deckOperator3D(t, d3), 4, 4, 4))
}

// deckOperator2D builds the first-step operator of a 2D deck the way
// core does: paint the states, reflect, BuildOperator2D at the deck's Δt.
func deckOperator2D(t testing.TB, d *deck.Deck) *stencil.Operator2D {
	t.Helper()
	g := grid.MustGrid2D(d.XCells, d.YCells, 2, d.XMin, d.XMax, d.YMin, d.YMax)
	den, en := grid.NewField2D(g), grid.NewField2D(g)
	if err := problem.Paint(d.States, den, en); err != nil {
		t.Fatal(err)
	}
	den.ReflectHalos(g.Halo)
	op, err := stencil.BuildOperator2D(par.Serial, den, d.InitialTimestep, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func deckOperator3D(t testing.TB, d *deck.Deck) *stencil.Operator3D {
	t.Helper()
	g, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, 2, d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
	if err != nil {
		t.Fatal(err)
	}
	den, en := grid.NewField3D(g), grid.NewField3D(g)
	if err := problem.Paint3D(d.States, den, en); err != nil {
		t.Fatal(err)
	}
	den.ReflectHalos(g.Halo)
	op, err := stencil.BuildOperator3D(par.Serial, den, d.InitialTimestep, stencil.Conductivity, stencil.AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// Deep-halo replication: with a depth-3 halo the correction over the
// extended bounds ext(2) must reproduce, bit for bit, what the
// neighbouring rank computes for the same global cells in its own
// interior — at ranks {1,2,4}, with block boundaries that do not align
// with the rank boundaries. Every cell any rank corrected is compared
// against its owner's value.
func TestExtendedCorrectionReplicatesNeighbourInterior2D(t *testing.T) {
	const n, halo = 24, 3
	den := func(j, k int) float64 { return 0.6 + 4*float64((j*31+k*17)%23)/23 }
	val := func(j, k int) float64 { return math.Sin(0.37*float64(j)) + math.Cos(0.23*float64(k)*float64(j+1)) }
	for ranks, pxpy := range map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}} {
		part := grid.MustPartition(n, n, pxpy[0], pxpy[1])
		gg := grid.UnitGrid2D(n, n, halo)
		type rankOut struct {
			ext grid.Extent
			b   grid.Bounds
			w   *grid.Field2D
		}
		outs := make([]rankOut, ranks)
		err := comm.Run(part, func(c *comm.RankComm) error {
			ext := part.ExtentOf(c.Rank())
			sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
			if err != nil {
				return err
			}
			df, w := grid.NewField2D(sub), grid.NewField2D(sub)
			for k := 0; k < sub.NY; k++ {
				for j := 0; j < sub.NX; j++ {
					df.Set(j, k, den(ext.X0+j, ext.Y0+k))
					w.Set(j, k, val(ext.X0+j, ext.Y0+k))
				}
			}
			if err := c.Exchange(halo, df, w); err != nil {
				return err
			}
			phys := c.Physical()
			op, err := stencil.BuildOperator2D(par.Serial, df, 0.9, stencil.Conductivity,
				stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
			if err != nil {
				return err
			}
			d, err := New(par.Serial, c, op,
				Geometry{GlobalNX: n, GlobalNY: n, OffsetX: ext.X0, OffsetY: ext.Y0}, Config{BX: 5, BY: 3})
			if err != nil {
				return err
			}
			side := func(physical bool) int {
				if physical {
					return 0
				}
				return halo - 1
			}
			b := sub.Interior().ExpandSides(side(phys.Left), side(phys.Right), side(phys.Down), side(phys.Up), sub)
			d.ProjectWBounds(b, w, nil, nil)
			outs[c.Rank()] = rankOut{ext, b, w}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, o := range outs {
			for k := o.b.Y0; k < o.b.Y1; k++ {
				for j := o.b.X0; j < o.b.X1; j++ {
					gj, gk := o.ext.X0+j, o.ext.Y0+k
					own := outs[part.OwnerOf(gj, gk)]
					if got, want := o.w.At(j, k), own.w.At(gj-own.ext.X0, gk-own.ext.Y0); got != want {
						t.Fatalf("ranks=%d: rank %d holds %v at global (%d,%d), its owner %v", ranks, r, got, gj, gk, want)
					}
				}
			}
		}
	}
}

func TestExtendedCorrectionReplicatesNeighbourInterior3D(t *testing.T) {
	const n, halo = 12, 3
	den := func(i, j, k int) float64 { return 0.6 + 4*float64((i*31+j*17+k*13)%23)/23 }
	val := func(i, j, k int) float64 {
		return math.Sin(0.37*float64(i)) + math.Cos(0.23*float64(k)*float64(j+1))
	}
	for ranks, pl := range map[int][3]int{1: {1, 1, 1}, 2: {1, 1, 2}, 4: {1, 2, 2}} {
		part := grid.MustPartition3D(n, n, n, pl[0], pl[1], pl[2])
		gg := grid.UnitGrid3D(n, n, n, halo)
		type rankOut struct {
			ext grid.Extent3D
			b   grid.Bounds3D
			w   *grid.Field3D
		}
		outs := make([]rankOut, ranks)
		err := comm.Run3D(part, func(c *comm.RankComm) error {
			ext := part.ExtentOf(c.Rank())
			sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1, ext.Z0, ext.Z1)
			if err != nil {
				return err
			}
			df, w := grid.NewField3D(sub), grid.NewField3D(sub)
			for k := 0; k < sub.NZ; k++ {
				for j := 0; j < sub.NY; j++ {
					for i := 0; i < sub.NX; i++ {
						df.Set(i, j, k, den(ext.X0+i, ext.Y0+j, ext.Z0+k))
						w.Set(i, j, k, val(ext.X0+i, ext.Y0+j, ext.Z0+k))
					}
				}
			}
			if err := c.Exchange3D(halo, df, w); err != nil {
				return err
			}
			phys := c.Physical3D()
			op, err := stencil.BuildOperator3D(par.Serial, df, 0.9, stencil.Conductivity,
				stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
					Up: phys.Up, Back: phys.Back, Front: phys.Front})
			if err != nil {
				return err
			}
			d, err := New3D(par.Serial, c, op, Geometry3D{GlobalNX: n, GlobalNY: n, GlobalNZ: n,
				OffsetX: ext.X0, OffsetY: ext.Y0, OffsetZ: ext.Z0}, Config{BX: 2, BY: 5, BZ: 5})
			if err != nil {
				return err
			}
			side := func(physical bool) int {
				if physical {
					return 0
				}
				return halo - 1
			}
			b := sub.Interior().ExpandSides(side(phys.Left), side(phys.Right), side(phys.Down),
				side(phys.Up), side(phys.Back), side(phys.Front), sub)
			d.ProjectWBounds(b, w, nil, nil)
			outs[c.Rank()] = rankOut{ext, b, w}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, o := range outs {
			for k := o.b.Z0; k < o.b.Z1; k++ {
				for j := o.b.Y0; j < o.b.Y1; j++ {
					for i := o.b.X0; i < o.b.X1; i++ {
						gi, gj, gk := o.ext.X0+i, o.ext.Y0+j, o.ext.Z0+k
						own := outs[part.RankAt(part.ColumnOf(gi), part.RowOf(gj), part.PlaneOf(gk))]
						got, want := o.w.At(i, j, k), own.w.At(gi-own.ext.X0, gj-own.ext.Y0, gk-own.ext.Z0)
						if got != want {
							t.Fatalf("ranks=%d: rank %d holds %v at global (%d,%d,%d), its owner %v",
								ranks, r, got, gi, gj, gk, want)
						}
					}
				}
			}
		}
	}
}

// TestProjectWRestrictedMatchesProjectWBounds: handing w's interior rows to
// RestrictRow — in any order — and then projecting with
// ProjectWRestricted is ProjectWBounds bit for bit, on w and on the
// returned curvature dot, in 2D and 3D, with and without the folded
// diagonal. That is the hand-off the fused CG pass makes.
func TestProjectWRestrictedMatchesProjectWBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(data []float64, lo float64) {
		for i := range data {
			data[i] = lo + rng.Float64()
		}
	}
	g := grid.UnitGrid2D(23, 17, 2)
	den := grid.NewField2D(g)
	fill(den.Data, 0.5)
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.9, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	g3 := grid.UnitGrid3D(9, 7, 6, 2)
	den3 := grid.NewField3D(g3)
	fill(den3.Data, 0.5)
	op3, err := stencil.BuildOperator3D(par.Serial, den3, 0.9, stencil.Conductivity, stencil.AllPhysical3D)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(par.NewPool(3).WithGrain(1), nil, op, Geometry{}, Config{BX: 5, BY: 3})
	if err != nil {
		t.Fatal(err)
	}
	d3, err := New3D(par.Serial, nil, op3, Geometry3D{}, Config{BX: 2, BY: 3, BZ: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pre := range []bool{false, true} {
		w, x, m := grid.NewField2D(g), grid.NewField2D(g), grid.NewField2D(g)
		fill(w.Data, -0.5)
		fill(x.Data, -0.5)
		fill(m.Data, 0.5)
		minv := m
		if !pre {
			minv = nil
		}
		in := g.Interior()
		wO := w.Clone()
		want := d.ProjectWBounds(in, wO, minv, x)
		for k := in.Y1 - 1; k >= in.Y0; k-- {
			d.RestrictRow(w, k)
		}
		if got := d.ProjectWRestricted(in, w, minv, x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("2D minv=%v: dot %v, ProjectWBounds %v", pre, got, want)
		}
		for i := range w.Data {
			if math.Float64bits(w.Data[i]) != math.Float64bits(wO.Data[i]) {
				t.Fatalf("2D minv=%v: w differs at flat index %d", pre, i)
			}
		}

		w3, x3, m3 := grid.NewField3D(g3), grid.NewField3D(g3), grid.NewField3D(g3)
		fill(w3.Data, -0.5)
		fill(x3.Data, -0.5)
		fill(m3.Data, 0.5)
		minv3 := m3
		if !pre {
			minv3 = nil
		}
		in3 := g3.Interior()
		wO3 := w3.Clone()
		want = d3.ProjectWBounds(in3, wO3, minv3, x3)
		for k := in3.Z1 - 1; k >= in3.Z0; k-- {
			for j := in3.Y0; j < in3.Y1; j++ {
				d3.RestrictRow(w3, j, k)
			}
		}
		if got := d3.ProjectWRestricted(in3, w3, minv3, x3); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("3D minv=%v: dot %v, ProjectWBounds %v", pre, got, want)
		}
		for i := range w3.Data {
			if math.Float64bits(w3.Data[i]) != math.Float64bits(wO3.Data[i]) {
				t.Fatalf("3D minv=%v: w differs at flat index %d", pre, i)
			}
		}
	}
}

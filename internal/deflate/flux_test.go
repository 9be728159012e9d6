package deflate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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
// 1e-9·‖w‖∞ on random and stiff operators, 2D and 3D, and correctDot's
// dot with the dot of the corrected field.
func TestFluxCorrectionMatchesApplyOracle(t *testing.T) {
	for _, c := range fluxCases(t, par.Serial) {
		p := c.p
		w := randomFlat(p, 3)
		x, m := randomFlat(p, 4), randomFlat(p, 5)
		p.restrictSolve(w)
		want := append([]float64(nil), w...)
		c.oracle(want)
		got := append([]float64(nil), w...)
		dot := p.correctDot(got, m, x)
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
		// The dot-free path must write the same bits.
		again := append([]float64(nil), w...)
		p.correct(again)
		if maxAbsInterior(p, again, got) != 0 {
			t.Errorf("%s: correct and correctDot write different fields", c.name)
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
// pointwise. correctDot's dot folds per band like every solver dot, so
// it is bit-identical run to run on one pool and agrees with the serial
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
			p.restrictSolve(w)
			dot := p.correctDot(w, nil, x)
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
			p.project(w)
			pw := append([]float64(nil), w...)
			p.restrict(pw)
			for cb, s := range p.cr {
				if math.Abs(s) > 1e-13*scale {
					t.Errorf("%s w#%d: (Wᵀ·P·w)[%d] = %.3e, want ≤ 1e-13·‖w‖∞ = %.3e", c.name, seed, cb, s, 1e-13*scale)
					break
				}
			}
			p.project(w)
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

// TestRowHandOffMatchesProjectW: the projection the CG engine takes
// inside its sweeps — w's interior rows handed to RestrictRow in any
// order, Restriction, SolveCoarse on the (single-rank) sums, then
// CorrectRow on every interior row, or CorrectRowFaces with its λ_c
// taken off afterwards — leaves w bit for bit as ProjectW does, in 2D
// and 3D; the parent's two-pass form (projectRestricted) matches both.
// SolveCoarse returns bᵀλ for the λ it leaves pending.
func TestRowHandOffMatchesProjectW(t *testing.T) {
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
	// checkBTL checks SolveCoarse's bᵀλ against Σ b_c·λ_c.
	checkBTL := func(label string, p *projector, b []float64, got float64) {
		t.Helper()
		var want, mag float64
		for c, v := range b {
			lam := p.lbar + p.cl[c]
			want += v * lam
			mag += math.Abs(v * lam)
		}
		if math.Abs(got-want) > 1e-12*mag {
			t.Errorf("%s: SolveCoarse = %v, Σ b·λ = %v", label, got, want)
		}
	}
	same := func(label string, got, want []float64) {
		t.Helper()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: w differs at flat index %d: %v vs %v", label, i, got[i], want[i])
			}
		}
	}
	in := g.Interior()
	w, x := grid.NewField2D(g), grid.NewField2D(g)
	fill(w.Data, -0.5)
	fill(x.Data, -0.5)
	wO, wP := w.Clone(), w.Clone()
	d.ProjectW(wO)
	for k := in.Y1 - 1; k >= in.Y0; k-- {
		d.RestrictRow(w, k)
		d.RestrictRow(wP, k)
	}
	sums := append([]float64(nil), d.Restriction()...)
	checkBTL("2D", &d.projector, sums, d.SolveCoarse(sums))
	wF := w.Clone()
	for k := in.Y0; k < in.Y1; k++ {
		d.CorrectRow(w, k)
		row := wF.Row(k, in.X0, in.X1)
		for i, lam := range d.CorrectRowFaces(wF, k) {
			row[i] -= lam
		}
	}
	same("2D", w.Data, wO.Data)
	same("2D faces", wF.Data, wO.Data)
	d.projectRestricted(wP.Data, nil, x.Data)
	same("2D parent", wP.Data, wO.Data)

	in3 := g3.Interior()
	w3, x3 := grid.NewField3D(g3), grid.NewField3D(g3)
	fill(w3.Data, -0.5)
	fill(x3.Data, -0.5)
	wO3 := w3.Clone()
	d3.ProjectW(wO3)
	for k := in3.Z1 - 1; k >= in3.Z0; k-- {
		for j := in3.Y0; j < in3.Y1; j++ {
			d3.RestrictRow(w3, j, k)
		}
	}
	sums = append(sums[:0], d3.Restriction()...)
	checkBTL("3D", &d3.projector, sums, d3.SolveCoarse(sums))
	wF3 := w3.Clone()
	for k := in3.Z0; k < in3.Z1; k++ {
		for j := in3.Y0; j < in3.Y1; j++ {
			d3.CorrectRow(w3, j, k)
			row := wF3.Row(j, k, in3.X0, in3.X1)
			for i, lam := range d3.CorrectRowFaces(wF3, j, k) {
				row[i] -= lam
			}
		}
	}
	same("3D", w3.Data, wO3.Data)
	same("3D faces", wF3.Data, wO3.Data)
}

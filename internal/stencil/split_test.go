package stencil

import (
	"math"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// positiveField returns a field of values in (0.5, 1.5) over the whole
// padded region, usable as a Jacobi-style minv.
func positiveField(g *grid.Grid2D, seed int64) *grid.Field2D {
	f := randomField(g, seed)
	for i, v := range f.Data {
		f.Data[i] = 1 + v/2
	}
	return f
}

func positiveField3D(g *grid.Grid3D, seed int64) *grid.Field3D {
	f := randomField3D(g, seed)
	for i, v := range f.Data {
		f.Data[i] = 1 + v/2
	}
	return f
}

// TestApplyPreDotSplitMatchesFull pins the split-sweep contract: the
// interior pass plus the boundary-ring pass produce exactly the same w
// field as the one-shot ApplyPreDot, and their two dot partials sum to
// its return. Mesh widths straddle the applyTileX column tiling, and
// degenerate thin domains (no interior at all) are included.
func TestApplyPreDotSplitMatchesFull(t *testing.T) {
	defer func(w int) { applyTileX = w }(applyTileX)
	applyTileX = 16 // exercise the strip-mining path at test-sized meshes
	shapes := []struct{ nx, ny int }{
		{17, 13}, {applyTileX + 7, 9}, {2*applyTileX + 3, 5},
		{1, 1}, {2, 7}, {7, 2}, {3, 3}, {1, 9},
	}
	for _, sh := range shapes {
		g := grid.UnitGrid2D(sh.nx, sh.ny, 2)
		op, err := BuildOperator2D(par.Serial, randomDensity(g, 1), 0.04, Conductivity, AllPhysical)
		if err != nil {
			t.Fatal(err)
		}
		r := randomField(g, 2)
		for _, minv := range []*grid.Field2D{nil, positiveField(g, 3)} {
			b := g.Interior()
			wFull := grid.NewField2D(g)
			want := op.ApplyPreDot(par.Serial, b, minv, r, wFull)

			wSplit := grid.NewField2D(g)
			gotInt := op.ApplyPreDotInterior(par.Serial, b, minv, r, wSplit)
			gotBnd := op.ApplyPreDotBoundary(par.Serial, b, minv, r, wSplit)
			got := gotInt + gotBnd

			if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
				t.Errorf("%dx%d minv=%v: split dot %g != full %g", sh.nx, sh.ny, minv != nil, got, want)
			}
			for k := 0; k < g.NY; k++ {
				for j := 0; j < g.NX; j++ {
					d := math.Abs(wSplit.At(j, k) - wFull.At(j, k))
					if d > 1e-12*(1+math.Abs(wFull.At(j, k))) {
						t.Fatalf("%dx%d minv=%v: w(%d,%d) split %g != full %g",
							sh.nx, sh.ny, minv != nil, j, k, wSplit.At(j, k), wFull.At(j, k))
					}
				}
			}
		}
	}
}

// TestApplyPreDotSplitMatchesFull3D is the 3D twin: interior plus
// six-face shell equals the one-shot sweep. Every 3D sweep evaluates a
// cell through point7, so here w is held to bitwise equality; the dot
// partials associate differently and keep the 2D test's tolerance.
func TestApplyPreDotSplitMatchesFull3D(t *testing.T) {
	shapes := []struct{ nx, ny, nz int }{
		{10, 8, 6}, {5, 5, 5}, {2, 6, 4}, {6, 2, 4}, {6, 4, 2}, {1, 3, 3},
	}
	for _, sh := range shapes {
		g := grid.UnitGrid3D(sh.nx, sh.ny, sh.nz, 2)
		op, err := BuildOperator3D(par.Serial, randomDensity3D(g, 4), 0.03, Conductivity, AllPhysical3D)
		if err != nil {
			t.Fatal(err)
		}
		r := randomField3D(g, 5)
		for _, minv := range []*grid.Field3D{nil, positiveField3D(g, 6)} {
			b := g.Interior()
			wFull := grid.NewField3D(g)
			want := op.ApplyPreDot(par.Serial, b, minv, r, wFull)

			wSplit := grid.NewField3D(g)
			gotInt := op.ApplyPreDotInterior(par.Serial, b, minv, r, wSplit)
			gotBnd := op.ApplyPreDotBoundary(par.Serial, b, minv, r, wSplit)
			got := gotInt + gotBnd

			if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
				t.Errorf("%v minv=%v: split dot %g != full %g", sh, minv != nil, got, want)
			}
			for k := 0; k < g.NZ; k++ {
				for j := 0; j < g.NY; j++ {
					for i := 0; i < g.NX; i++ {
						if wSplit.At(i, j, k) != wFull.At(i, j, k) {
							t.Fatalf("%v minv=%v: w(%d,%d,%d) split %g != full %g",
								sh, minv != nil, i, j, k, wSplit.At(i, j, k), wFull.At(i, j, k))
						}
					}
				}
			}
		}
	}
}

// TestApplyDot2MatchesApplyDot pins the rewritten 4-way-unrolled
// ApplyDot2 to ApplyDot on the same inputs.
func TestApplyDot2MatchesApplyDot(t *testing.T) {
	g := grid.UnitGrid2D(23, 11, 2)
	op, err := BuildOperator2D(par.Serial, randomDensity(g, 7), 0.05, RecipConductivity, AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	p := randomField(g, 8)
	b := g.Interior()
	w1 := grid.NewField2D(g)
	pwWant := op.ApplyDot(par.Serial, b, p, w1)
	w2 := grid.NewField2D(g)
	pw, ww := op.ApplyDot2(par.Serial, b, p, w2)
	if math.Abs(pw-pwWant) > 1e-10*(1+math.Abs(pwWant)) {
		t.Errorf("pw %g != %g", pw, pwWant)
	}
	var wwWant float64
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			if w1.At(j, k) != w2.At(j, k) {
				t.Fatalf("w(%d,%d) %g != %g", j, k, w2.At(j, k), w1.At(j, k))
			}
			wwWant += w1.At(j, k) * w1.At(j, k)
		}
	}
	if math.Abs(ww-wwWant) > 1e-10*(1+wwWant) {
		t.Errorf("ww %g != %g", ww, wwWant)
	}
}

func benchOp2D(b *testing.B, n int) (*Operator2D, *grid.Field2D, *grid.Field2D) {
	g := grid.UnitGrid2D(n, n, 2)
	den := grid.NewField2D(g)
	den.Fill(1.7)
	op, err := BuildOperator2D(par.Serial, den, 0.04, Conductivity, AllPhysical)
	if err != nil {
		b.Fatal(err)
	}
	return op, randomField(g, 1), grid.NewField2D(g)
}

func BenchmarkApplyDotFull2048(b *testing.B) {
	op, p, w := benchOp2D(b, 2048)
	in := op.Grid.Interior()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += op.ApplyPreDot(par.Serial, in, nil, p, w)
	}
	_ = sink
}

func BenchmarkApplyDotSplit2048(b *testing.B) {
	op, p, w := benchOp2D(b, 2048)
	in := op.Grid.Interior()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += op.ApplyPreDotInterior(par.Serial, in, nil, p, w)
		sink += op.ApplyPreDotBoundary(par.Serial, in, nil, p, w)
	}
	_ = sink
}

func BenchmarkApplyDotFull1024(b *testing.B) {
	op, p, w := benchOp2D(b, 1024)
	in := op.Grid.Interior()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += op.ApplyPreDot(par.Serial, in, nil, p, w)
	}
	_ = sink
}

func BenchmarkApplyDotSplit1024(b *testing.B) {
	op, p, w := benchOp2D(b, 1024)
	in := op.Grid.Interior()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += op.ApplyPreDotInterior(par.Serial, in, nil, p, w)
		sink += op.ApplyPreDotBoundary(par.Serial, in, nil, p, w)
	}
	_ = sink
}

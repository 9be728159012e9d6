package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

func testField(g *grid.Grid2D, seed int64) *grid.Field2D {
	f := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.Float64()*2 - 1
	}
	return f
}

var pools = map[string]*par.Pool{
	"serial":   par.Serial,
	"parallel": par.NewPool(4).WithGrain(1),
}

func TestDot(t *testing.T) {
	g := grid.UnitGrid2D(17, 11, 2)
	x := testField(g, 1)
	y := testField(g, 2)
	b := g.Interior()
	var want float64
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			want += x.At(j, k) * y.At(j, k)
		}
	}
	for name, p := range pools {
		if got := Dot(p, b, x, y); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: Dot = %v, want %v", name, got, want)
		}
	}
	if Dot(par.Serial, grid.Bounds{X0: 3, X1: 3, Y0: 0, Y1: 5}, x, y) != 0 {
		t.Error("empty bounds dot must be 0")
	}
}

func TestDotExcludesHalo(t *testing.T) {
	g := grid.UnitGrid2D(4, 4, 2)
	x := grid.NewField2D(g)
	x.Fill(1) // halos are 1 as well
	got := Dot(par.Serial, g.Interior(), x, x)
	if got != 16 {
		t.Errorf("Dot over interior = %v, want 16 (halo leaked in)", got)
	}
}

func TestAxpy(t *testing.T) {
	g := grid.UnitGrid2D(9, 9, 1)
	b := g.Interior()
	for name, p := range pools {
		x := testField(g, 3)
		y := testField(g, 4)
		want := y.Clone()
		for k := 0; k < g.NY; k++ {
			for j := 0; j < g.NX; j++ {
				want.Set(j, k, want.At(j, k)+2.5*x.At(j, k))
			}
		}
		Axpy(p, b, 2.5, x, y)
		if !y.ApproxEqual(want, 1e-14) {
			t.Errorf("%s: Axpy mismatch, maxdiff=%v", name, y.MaxDiff(want))
		}
	}
}

func TestXpay(t *testing.T) {
	g := grid.UnitGrid2D(8, 6, 1)
	b := g.Interior()
	x := testField(g, 5)
	y := testField(g, 6)
	want := grid.NewField2D(g)
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			want.Set(j, k, x.At(j, k)+0.75*y.At(j, k))
		}
	}
	Xpay(par.Serial, b, x, 0.75, y)
	if !y.ApproxEqual(want, 1e-14) {
		t.Errorf("Xpay mismatch: %v", y.MaxDiff(want))
	}
}

func TestAxpby(t *testing.T) {
	g := grid.UnitGrid2D(8, 6, 1)
	b := g.Interior()
	x := testField(g, 7)
	y := testField(g, 8)
	z := grid.NewField2D(g)
	Axpby(par.NewPool(3).WithGrain(1), b, 2, x, -3, y, z)
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			want := 2*x.At(j, k) - 3*y.At(j, k)
			if math.Abs(z.At(j, k)-want) > 1e-14 {
				t.Fatalf("Axpby(%d,%d) = %v, want %v", j, k, z.At(j, k), want)
			}
		}
	}
}

func TestCopyScaleFill(t *testing.T) {
	g := grid.UnitGrid2D(10, 10, 1)
	b := grid.Bounds{X0: 2, X1: 8, Y0: 3, Y1: 7}
	src := testField(g, 9)
	dst := grid.NewField2D(g)
	Copy(par.Serial, b, dst, src)
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			want := 0.0
			if b.Contains(j, k) {
				want = src.At(j, k)
			}
			if dst.At(j, k) != want {
				t.Fatalf("Copy(%d,%d) = %v, want %v", j, k, dst.At(j, k), want)
			}
		}
	}
	Fill(par.Serial, b, 7, dst)
	if dst.At(3, 4) != 7 || dst.At(0, 0) != 0 {
		t.Error("Fill must only touch bounds")
	}
	ScaleTo(par.Serial, b, 3, src, dst)
	if math.Abs(dst.At(2, 3)-3*src.At(2, 3)) > 1e-15 {
		t.Error("ScaleTo wrong")
	}
}

func TestSubMul(t *testing.T) {
	g := grid.UnitGrid2D(6, 6, 1)
	b := g.Interior()
	x := testField(g, 10)
	y := testField(g, 11)
	z := grid.NewField2D(g)
	Sub(par.Serial, b, x, y, z)
	if math.Abs(z.At(2, 2)-(x.At(2, 2)-y.At(2, 2))) > 1e-15 {
		t.Error("Sub wrong")
	}
	Mul(par.Serial, b, x, y, z)
	if math.Abs(z.At(4, 1)-x.At(4, 1)*y.At(4, 1)) > 1e-15 {
		t.Error("Mul wrong")
	}
}

func TestDot2MatchesTwoDots(t *testing.T) {
	g := grid.UnitGrid2D(15, 9, 1)
	b := g.Interior()
	x, y, z := testField(g, 14), testField(g, 15), testField(g, 16)
	for name, p := range pools {
		xy, yz := Dot2(p, b, x, y, z)
		if math.Abs(xy-Dot(par.Serial, b, x, y)) > 1e-12 {
			t.Errorf("%s: Dot2 xy mismatch", name)
		}
		if math.Abs(yz-Dot(par.Serial, b, y, z)) > 1e-12 {
			t.Errorf("%s: Dot2 yz mismatch", name)
		}
	}
}

func TestKernelsOnExpandedBounds(t *testing.T) {
	// The matrix-powers kernel runs vector ops on bounds extended into the
	// halo; kernels must handle negative coordinates.
	g := grid.UnitGrid2D(8, 8, 3)
	b := g.Interior().Expand(2, g)
	x := testField(g, 17)
	y := testField(g, 18)
	var want float64
	for k := -2; k < 10; k++ {
		for j := -2; j < 10; j++ {
			want += x.At(j, k) * y.At(j, k)
		}
	}
	if got := Dot(par.Serial, b, x, y); math.Abs(got-want) > 1e-12 {
		t.Errorf("Dot on expanded bounds = %v, want %v", got, want)
	}
	Axpy(par.Serial, b, 1.5, x, y)
	if math.Abs(y.At(-2, -2)-(testField(g, 18).At(-2, -2)+1.5*x.At(-2, -2))) > 1e-14 {
		t.Error("Axpy must update halo cells inside expanded bounds")
	}
}

func TestNorm2(t *testing.T) {
	g := grid.UnitGrid2D(3, 1, 1)
	x := grid.NewField2D(g)
	x.Set(0, 0, 2)
	x.Set(1, 0, 3)
	x.Set(2, 0, 6)
	if got := Norm2(par.Serial, g.Interior(), x); math.Abs(got-7) > 1e-14 {
		t.Errorf("Norm2 = %v, want 7", got)
	}
}

func TestDotLinearityQuick(t *testing.T) {
	g := grid.UnitGrid2D(12, 8, 1)
	b := g.Interior()
	x := testField(g, 19)
	y := testField(g, 20)
	z := testField(g, 21)
	f := func(au, bu int8) bool {
		alpha, beta := float64(au)/16, float64(bu)/16
		// <αx + βy, z> == α<x,z> + β<y,z>
		tmp := grid.NewField2D(g)
		Axpby(par.Serial, b, alpha, x, beta, y, tmp)
		lhs := Dot(par.Serial, b, tmp, z)
		rhs := alpha*Dot(par.Serial, b, x, z) + beta*Dot(par.Serial, b, y, z)
		return math.Abs(lhs-rhs) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

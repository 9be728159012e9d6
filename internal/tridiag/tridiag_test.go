package tridiag

import (
	"math"
	"math/rand"
	"testing"
)

// diagDominant builds a random strictly diagonally dominant tridiagonal
// system of size n, the class the block-Jacobi preconditioner produces.
func diagDominant(n int, rng *rand.Rand) (a, b, c, d []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	c = make([]float64, n)
	d = make([]float64, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			a[i] = -rng.Float64()
		}
		if i < n-1 {
			c[i] = -rng.Float64()
		}
		b[i] = 1 + math.Abs(a[i]) + math.Abs(c[i]) + rng.Float64()
		d[i] = rng.Float64()*2 - 1
	}
	return
}

// Solve is Thomas with internally allocated workspace.
func Solve(a, b, c, d []float64) ([]float64, error) {
	x := make([]float64, len(b))
	w := make([]float64, len(b))
	if err := Thomas(a, b, c, d, x, w); err != nil {
		return nil, err
	}
	return x, nil
}

// MatVec computes y = T x for the tridiagonal matrix T given by (a,b,c).
func MatVec(a, b, c, x []float64) []float64 {
	n := len(b)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b[i] * x[i]
		if i > 0 {
			y[i] += a[i] * x[i-1]
		}
		if i < n-1 {
			y[i] += c[i] * x[i+1]
		}
	}
	return y
}

func residualInf(a, b, c, d, x []float64) float64 {
	y := MatVec(a, b, c, x)
	var m float64
	for i := range y {
		if r := math.Abs(y[i] - d[i]); r > m {
			m = r
		}
	}
	return m
}

func TestThomasSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Sizes 1-4 are the strip sizes the preconditioner actually uses
	// (truncated strips of 3, 2, 1 at boundaries per §IV-C1).
	for _, n := range []int{1, 2, 3, 4, 5, 16, 100} {
		a, b, c, d := diagDominant(n, rng)
		x, err := Solve(a, b, c, d)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := residualInf(a, b, c, d, x); r > 1e-12 {
			t.Errorf("n=%d: residual %v", n, r)
		}
	}
}

func TestThomasKnownSolution(t *testing.T) {
	// [2 -1; -1 2 -1; -1 2] x = [1 0 1] has solution [1 1 1].
	a := []float64{0, -1, -1}
	b := []float64{2, 2, 2}
	c := []float64{-1, -1, 0}
	d := []float64{1, 0, 1}
	x, err := Solve(a, b, c, d)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if math.Abs(v-1) > 1e-14 {
			t.Errorf("x[%d] = %v, want 1", i, v)
		}
	}
}

func TestThomasAliasedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, c, d := diagDominant(8, rng)
	dCopy := append([]float64(nil), d...)
	w := make([]float64, 8)
	// x aliases d — allowed by the contract.
	if err := Thomas(a, b, c, d, d, w); err != nil {
		t.Fatal(err)
	}
	if r := residualInf(a, b, c, dCopy, d); r > 1e-12 {
		t.Errorf("aliased residual %v", r)
	}
}

func TestThomasPreservesInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b, c, d := diagDominant(6, rng)
	ac := append([]float64(nil), a...)
	bc := append([]float64(nil), b...)
	cc := append([]float64(nil), c...)
	dc := append([]float64(nil), d...)
	x := make([]float64, 6)
	w := make([]float64, 6)
	if err := Thomas(a, b, c, d, x, w); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != ac[i] || b[i] != bc[i] || c[i] != cc[i] || d[i] != dc[i] {
			t.Fatal("Thomas modified its inputs")
		}
	}
}

func TestThomasErrors(t *testing.T) {
	if err := Thomas([]float64{0}, []float64{1}, []float64{0}, []float64{1}, []float64{0}, []float64{0, 0}); err == nil {
		t.Error("length mismatch must error")
	}
	// Singular 1x1.
	if err := Thomas([]float64{0}, []float64{0}, []float64{0}, []float64{1}, []float64{0}, []float64{0}); err != ErrSingular {
		t.Errorf("zero pivot: got %v, want ErrSingular", err)
	}
	// Empty system is trivially solved.
	if err := Thomas(nil, nil, nil, nil, nil, nil); err != nil {
		t.Errorf("empty system: %v", err)
	}
}

func TestMatVec(t *testing.T) {
	a := []float64{0, 1, 1}
	b := []float64{2, 2, 2}
	c := []float64{1, 1, 0}
	x := []float64{1, 2, 3}
	y := MatVec(a, b, c, x)
	want := []float64{2*1 + 1*2, 1*1 + 2*2 + 1*3, 1*2 + 2*3}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

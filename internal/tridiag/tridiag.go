// Package tridiag solves small tridiagonal linear systems. The block-Jacobi
// preconditioner (§IV-C1 of the paper) splits the mesh into 4×1 strips whose
// 4×4 blocks of the system matrix are tridiagonal; TeaLeaf solves each strip
// serially with the Thomas algorithm, which the paper notes is faster than
// parallel tridiagonal methods (such as cyclic reduction) at this block
// size.
package tridiag

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when elimination encounters a (numerically) zero
// pivot. The TeaLeaf blocks are strictly diagonally dominant, so this only
// occurs on invalid input.
var ErrSingular = errors.New("tridiag: zero pivot (matrix singular or not diagonally dominant)")

// Thomas solves the tridiagonal system with sub-diagonal a (a[0] unused),
// diagonal b, super-diagonal c (c[n-1] unused) and right-hand side d,
// writing the solution into x. Workspace w must have length n (it is
// scratch for the modified coefficients, so callers can reuse one buffer
// across many strips). a, b, c, d are not modified. x and d may alias.
//
// The algorithm is the classic O(n) forward-elimination/back-substitution
// (Golub & Van Loan); it is stable for the diagonally dominant blocks the
// preconditioner produces.
func Thomas(a, b, c, d, x, w []float64) error {
	n := len(b)
	if len(a) != n || len(c) != n || len(d) != n || len(x) != n || len(w) != n {
		return fmt.Errorf("tridiag: inconsistent lengths a=%d b=%d c=%d d=%d x=%d w=%d",
			len(a), len(b), len(c), len(d), len(x), len(w))
	}
	if n == 0 {
		return nil
	}
	piv := b[0]
	if math.Abs(piv) < tiny {
		return ErrSingular
	}
	w[0] = c[0] / piv
	x[0] = d[0] / piv
	for i := 1; i < n; i++ {
		piv = b[i] - a[i]*w[i-1]
		if math.Abs(piv) < tiny {
			return ErrSingular
		}
		w[i] = c[i] / piv
		x[i] = (d[i] - a[i]*x[i-1]) / piv
	}
	for i := n - 2; i >= 0; i-- {
		x[i] -= w[i] * x[i+1]
	}
	return nil
}

const tiny = 1e-300

package solver

import (
	"errors"
	"fmt"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
)

// Every solver engine must stop at the first failed halo exchange and
// return that failure: a dropped error would let the iteration run on
// stale halos and report a wrong answer as converged, and an engine that
// keeps exchanging after a failure would leave a distributed run's peers
// waiting on messages this rank no longer means to send. failComm
// injects the failure at every exchange index of a clean solve in turn.

var errInjected = errors.New("injected exchange failure")

// failComm wraps a Communicator, failing the exchange after failAfter
// successful ones (failAfter < 0 never fails) and counting every call.
type failComm struct {
	comm.Communicator
	failAfter int
	exchanges int
}

func (f *failComm) fail() error {
	f.exchanges++
	if f.failAfter >= 0 && f.exchanges > f.failAfter {
		return fmt.Errorf("exchange call %d: %w", f.exchanges, errInjected)
	}
	return nil
}

func (f *failComm) Exchange(depth int, fields ...*grid.Field2D) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.Communicator.Exchange(depth, fields...)
}

func (f *failComm) Exchange3D(depth int, fields ...*grid.Field3D) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.Communicator.Exchange3D(depth, fields...)
}

func TestSolversSurfaceExchangeFailure(t *testing.T) {
	jacobi := func(p Problem, o *Options) { o.Precond = precond.NewJacobi(par.Serial, p.Op) }
	block := func(p Problem, o *Options) { o.Precond = precond.NewBlockJacobi(par.Serial, p.Op, 4) }
	cases := []struct {
		name string
		dims int
		kind Kind
		halo int
		o    Options
		// setup attaches the problem-dependent options: the
		// preconditioner and the deflator are built on the operator.
		setup   func(p Problem, o *Options)
		setup3D func(p Problem3D, o *Options)
	}{
		{name: "cg-fused", dims: 2, kind: KindCG, halo: 2},
		{name: "cg-fused-jac_diag", dims: 2, kind: KindCG, halo: 2, setup: jacobi},
		{name: "cg-fused-deflated", dims: 2, kind: KindCG, halo: 2, setup: func(p Problem, o *Options) {
			o.Deflation = newDeflation(t, p.Op, 4)
		}},
		{name: "cg-jac_block", dims: 2, kind: KindCG, halo: 2, setup: block},
		{name: "cg-jac_block-deflated", dims: 2, kind: KindCG, halo: 2, setup: func(p Problem, o *Options) {
			block(p, o)
			o.Deflation = newDeflation(t, p.Op, 4)
		}},
		{name: "chebyshev", dims: 2, kind: KindCheby, halo: 2, setup: jacobi},
		{name: "chebyshev-jac_block", dims: 2, kind: KindCheby, halo: 2, setup: block},
		{name: "ppcg", dims: 2, kind: KindPPCG, halo: 2, setup: jacobi},
		{name: "ppcg-jac_block", dims: 2, kind: KindPPCG, halo: 2, setup: block},
		{name: "ppcg-depth3", dims: 2, kind: KindPPCG, halo: 3, o: Options{HaloDepth: 3}, setup: jacobi},
		{name: "cg3d-fused", dims: 3, kind: KindCG, halo: 2, setup3D: func(p Problem3D, o *Options) {
			o.Precond3D = precond.NewJacobi3D(par.Serial, p.Op)
		}},
		{name: "cg3d-jac_block", dims: 3, kind: KindCG, halo: 2, setup3D: func(p Problem3D, o *Options) {
			o.Precond3D = precond.NewBlockJacobi3D(par.Serial, p.Op, 4)
		}},
		{name: "ppcg3d", dims: 3, kind: KindPPCG, halo: 2, setup3D: func(p Problem3D, o *Options) {
			o.Precond3D = precond.NewJacobi3D(par.Serial, p.Op)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			solve := func(failAfter int) (*failComm, Result, error) {
				fc := &failComm{Communicator: comm.NewSerial(), failAfter: failAfter}
				o := tc.o
				o.Tol, o.Comm = 1e-10, fc
				o.EigenCGIters, o.InnerSteps = 10, 4
				if tc.dims == 3 {
					p := buildProblem3DHalo(t, 8, 5, tc.halo)
					if tc.setup3D != nil {
						tc.setup3D(p, &o)
					}
					res, err := Solve3D(tc.kind, p, o)
					return fc, res, err
				}
				p := buildProblem(t, 16, 16, tc.halo, 11)
				if tc.setup != nil {
					tc.setup(p, &o)
				}
				res, err := Solve(tc.kind, p, o)
				return fc, res, err
			}

			clean, res, err := solve(-1)
			if err != nil || !res.Converged {
				t.Fatalf("clean solve: %v %+v", err, res)
			}
			n := clean.exchanges
			if n == 0 {
				t.Fatal("clean solve made no exchanges")
			}
			// The first 40 exchanges one by one, then about 40 more spread
			// over the rest of the solve, and its last exchange.
			stride := max(1, n/40)
			for failAfter := 0; failAfter < n; failAfter++ {
				if failAfter >= 40 && failAfter%stride != 0 && failAfter != n-1 {
					continue
				}
				fc, _, err := solve(failAfter)
				if !errors.Is(err, errInjected) {
					t.Fatalf("failure at exchange %d of %d: solve returned %v, want the injected error",
						failAfter+1, n, err)
				}
				if fc.exchanges != failAfter+1 {
					t.Fatalf("failure at exchange %d of %d: solve went on to %d exchanges",
						failAfter+1, n, fc.exchanges)
				}
			}
		})
	}
}

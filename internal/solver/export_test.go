package solver

// The textbook PCG oracle (classic_test.go), exposed to the solver_test
// package, whose engine tests import internal/propcheck and internal/core
// (which import this package).
var (
	SolveCGClassic   = solveCGClassic
	SolveCGClassic3D = solveCGClassic3D
)

package kernels

// The tests that also need package stencil (chebystep_test.go,
// kernels_bench_test.go) live in the external package kernels_test,
// because stencil imports kernels. These are the helpers they share with
// the in-package tests.
var (
	TestField   = testField
	NewRng      = newRng
	StepPools   = stepPools
	FusionPools = fusionPools
	FirstDiff   = firstDiff
)

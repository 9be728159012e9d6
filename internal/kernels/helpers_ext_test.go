package kernels_test

import . "tealeaf/internal/kernels"

// The in-package test helpers under their in-package names.
var (
	testField   = TestField
	newRng      = NewRng
	stepPools   = StepPools
	fusionPools = FusionPools
	firstDiff   = FirstDiff
)

package detloop_test

import (
	"testing"

	"tealeaf/internal/analysis/analysistest"
	"tealeaf/internal/analysis/detloop"
)

func TestDetLoop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), detloop.Analyzer, "tealeaf/internal/solver", "tealeaf/internal/kernels", "tealeaf/internal/par", "a")
}

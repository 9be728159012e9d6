// Package comm is the analysistest stub of the TCP backend surface the
// protectpanic analyzer matches on: the panic-capable reduction methods,
// the recovery scopes (Protect, RunTCP), and the Communicator
// interface a *TCP can escape into.
package comm

// TCPError mirrors comm.TCPError.
type TCPError struct{ Err error }

func (e *TCPError) Error() string { return "tcp" }

// ReduceHandle mirrors comm.ReduceHandle.
type ReduceHandle interface {
	Finish() []float64
}

// Communicator mirrors the solver-facing subset of comm.Communicator.
type Communicator interface {
	Rank() int
	Size() int
	Exchange(depth int, fields ...[]float64) error
	AllReduceSum(x float64) float64
	AllReduceSum2(x, y float64) (float64, float64)
	AllReduceSumN(vals []float64) []float64
	AllReduceSumNStart(vals []float64) ReduceHandle
	AllReduceSumNStartTagged(tag int, vals []float64) ReduceHandle
	AllReduceMax(x float64) float64
	Barrier()
}

// TCPConfig mirrors comm.TCPConfig.
type TCPConfig struct {
	Rank  int
	Peers []string
}

// TCP mirrors comm.TCP: the methods panic with *TCPError on transport
// failure.
type TCP struct{ rank int }

// NewTCP mirrors comm.NewTCP.
func NewTCP(cfg TCPConfig) (*TCP, error) { return &TCP{rank: cfg.Rank}, nil }

func (t *TCP) Rank() int                                                     { return t.rank }
func (t *TCP) Size() int                                                     { return 1 }
func (t *TCP) Close()                                                        {}
func (t *TCP) Exchange(depth int, fs ...[]float64) error                     { return nil }
func (t *TCP) AllReduceSum(x float64) float64                                { return x }
func (t *TCP) AllReduceSum2(x, y float64) (float64, float64)                 { return x, y }
func (t *TCP) AllReduceSumN(vals []float64) []float64                        { return vals }
func (t *TCP) AllReduceSumNStart(vals []float64) ReduceHandle                { return nil }
func (t *TCP) AllReduceSumNStartTagged(tag int, vals []float64) ReduceHandle { return nil }
func (t *TCP) AllReduceMax(x float64) float64                                { return x }
func (t *TCP) Barrier()                                                      {}

// Protect mirrors (*comm.TCP).Protect: recovers *TCPError panics from fn.
func (t *TCP) Protect(fn func() error) error { return fn() }

// RunTCP mirrors comm.RunTCP: each rank function runs under recovery.
func RunTCP(ranks int, fn func(c Communicator) error) error { return nil }

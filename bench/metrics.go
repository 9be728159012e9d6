package main

// metricDef names one benchmark metric. BENCHMARK.json carries the same
// list (the smoke test keeps the two in step); Bound is the share of the
// parent's median by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a user of the program sees, per workload, from
// untraced reps only. The two times report the median over the reps of
// a run. peak_rss_mb reports the maximum: a rep's peak depends on whether
// a garbage collection happened to run between set-up and solve (two
// modes ~6 % apart on the 2-rank hub row), so the median of a handful of
// reps flips between the modes while the largest of them does not.
//
// The bounds are wide because this class of machine is not steady: on the
// 2-core VM the benchmark was sized on, ten consecutive runs of one
// workload spread by 4-9 % between their quartiles and the level drifts
// by 15 % within an hour (bench/README.md has the numbers). A tighter
// bound would reject later changes for the machine's weather; a finer
// claim needs the paired runs the README describes.
var endToEnd = []metricDef{
	{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer come from one traced rep per run. bench/README.md says which
// end-to-end metric each should move, and on which workload.
var perLayer = []metricDef{
	{Name: "deck.parse_s", Unit: "s", Better: "lower"},
	{Name: "problem.paint_s", Unit: "s", Better: "lower"},
	{Name: "stencil.build_s", Unit: "s", Better: "lower"},
	{Name: "precond.build_s", Unit: "s", Better: "lower"},
	{Name: "deflate.build_s", Unit: "s", Better: "lower"},
	{Name: "comm.connect_s", Unit: "s", Better: "lower"},
	{Name: "comm.reduce_rounds", Unit: "count", Better: "lower"},
	{Name: "comm.reduce_wait_s", Unit: "s", Better: "lower"},
	{Name: "comm.exchanges", Unit: "count", Better: "lower"},
	{Name: "comm.exchange_s", Unit: "s", Better: "lower"},
	{Name: "comm.halo_msgs", Unit: "count", Better: "lower"},
	{Name: "comm.halo_bytes", Unit: "bytes", Better: "lower"},
	{Name: "comm.rank_skew_s", Unit: "s", Better: "lower"},
	{Name: "stencil.matvec_ns_per_cell", Unit: "ns/cell", Better: "lower"},
	{Name: "stencil.matvec_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "kernels.cg_dirs_ns_per_cell", Unit: "ns/cell", Better: "lower"},
	{Name: "kernels.cg_dirs_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "kernels.cg_update_ns_per_cell", Unit: "ns/cell", Better: "lower"},
	{Name: "kernels.cg_update_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "kernels.ppcg_inner_ns_per_cell", Unit: "ns/cell", Better: "lower"},
	{Name: "kernels.ppcg_inner_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "kernels.sweep_share", Unit: "ratio", Better: "higher"},
	{Name: "par.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "par.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "solver.iterations", Unit: "count", Better: "lower"},
	{Name: "solver.inner_iterations", Unit: "count", Better: "lower"},
	{Name: "solver.cell_iters_per_s", Unit: "1/s", Better: "higher"},
	{Name: "solver.true_residual_rel", Unit: "ratio", Better: "lower"},
	{Name: "solver.self_s", Unit: "s", Better: "lower"},
	{Name: "deflate.project_ns_per_cell", Unit: "ns/cell", Better: "lower"},
	{Name: "deflate.coarse_correct_s", Unit: "s", Better: "lower"},
	{Name: "core.step_s", Unit: "s", Better: "lower"},
	{Name: "core.step_max_s", Unit: "s", Better: "lower"},
	{Name: "output.vtk_s", Unit: "s", Better: "lower"},
	{Name: "output.vtk_bytes", Unit: "bytes", Better: "lower"},
	{Name: "host.llc_mb", Unit: "MB", Better: "higher"},
	{Name: "host.triad_array_mb", Unit: "MB", Better: "higher"},
	{Name: "host.triad_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "host.tcp_reduce_rtt_us", Unit: "us", Better: "lower"},
	{Name: "host.hub_reduce_rtt_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of one commit on one seed: -check fails on any difference.
var exactCounts = []string{
	"solver.iterations", "solver.inner_iterations",
	"comm.reduce_rounds", "comm.exchanges", "comm.halo_msgs", "comm.halo_bytes",
}

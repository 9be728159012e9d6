// Package tealeaf is a Go reproduction of the TeaLeaf mini-application
// (McIntosh-Smith et al., "TeaLeaf: A Mini-Application to Enable
// Design-Space Explorations for Iterative Sparse Linear Solvers", IEEE
// CLUSTER 2017): matrix-free iterative solvers — Jacobi, CG, Chebyshev and
// the communication-avoiding Chebyshev polynomially preconditioned CG
// (CPPCG) — for the implicit linear heat-conduction equation on regular
// 2D/3D grids, with block-Jacobi preconditioning, the matrix-powers
// deep-halo kernel, a pluggable MPI substitute (a goroutine/channel Hub
// for in-process ranks and a real-network TCP backend with a
// length-prefixed wire protocol for one-process-per-rank runs across
// machines; rectangular 2D partitions and box 3D partitions with a
// three-phase six-face exchange), a geometric multigrid baseline
// standing in for PETSc CG + Hypre BoomerAMG, and an analytic
// strong-scaling model of the paper's three evaluation machines (Titan,
// Piz Daint, Spruce).
//
// The solver core is dimension-agnostic: each iteration body (the fused
// single-reduction Chronopoulos–Gear CG, the guarded Chebyshev loop and
// the PPCG outer/inner cycle) is implemented exactly once, generic over
// a system abstraction backed by the 2D and 3D kernels, so solver.Solve
// (2D) and solver.Solve3D run the same loop code with diagonal
// preconditioner folding, matrix-powers deep halos and multi-rank
// execution in both dimensionalities. Preconditioners live in a unified
// registry with capability flags (none / jac_diag / jac_block, the
// latter as tridiagonal y-strips in 2D and z-lines in 3D), and subdomain
// deflation (§VII future work) composes as a distributed outer projector
// around the CG and PPCG solves in both dimensionalities — rank-local
// restriction over the global coarse partition, one allreduce per
// projection, an optional nested multi-level hierarchy — reachable from
// deck keys (tl_use_deflation, tl_deflation_blocks, tl_deflation_levels)
// through solver.Options.Deflation and Options.Deflation3D.
//
// Entry points:
//
//   - cmd/tealeaf — run an input deck (tea.in dialect), serially or over
//     goroutine ranks (-px/-py, plus -pz and -dims 3 for the 3D path;
//     -stiff/-deflate for the deflation regime). The -net flag selects
//     the comm backend: hub (goroutine ranks), tcp (this process is one
//     rank of a real-network run; -rank/-peers) or launch (fork N local
//     tcp ranks over loopback — the single-machine cluster).
//   - cmd/teabench — regenerate Table I and Figures 3–8 plus the ablation
//     studies; also the deck fuzzer (-exp fuzz) and the CI smoke run
//     (-exp smoke).
//   - examples/ — quickstart, crooked pipe, scaling study, mesh
//     convergence, heat3d (distributed 3D PPCG), deflation.
//
// The library lives under internal/; see README.md for the quickstart
// and architecture map, DESIGN.md for the system inventory (the fused
// single-reduction solver core, the dimension-agnostic loop bodies, the
// preconditioner capability matrix, and the comm backends including the
// TCP wire protocol), and docs/deck-format.md for the complete deck-key
// and CLI-flag reference. Timings come from bench/ (see
// bench/README.md), the benchmark BENCHMARK.json declares.
package tealeaf

// Version identifies this reproduction.
const Version = "1.0.0"

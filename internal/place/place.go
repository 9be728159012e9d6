// Package place puts threads on CPUs where the kernel will not: the one
// piece of thread placement (OpenMP's proc_bind(spread), an MPI launcher's
// core binding) the node-level layers need.
//
// Linux normally spreads runnable threads over idle CPUs by itself. It
// does not where load balancing is switched off for the CPUs a process
// may use: isolated CPUs, or a cpuset with sched_load_balance=0 — which
// some container hosts, this repository's benchmark box among them, keep
// at 0 while a guest is quiet and raise to 1 only after tasks have queued
// for a CPU for a second or so. With balancing off a new thread starts on
// its creator's CPU and every wake-up returns a thread to the CPU it last
// ran on, so the ranks of comm.Run or the two workers of a par.Pool take
// turns on one CPU while the next one idles, and a run is fast or slow by
// what the host decided a moment earlier.
//
// Spread is a nudge, not a binding: it moves the calling thread once and
// hands its full affinity mask straight back, so a kernel that does
// balance stays free to move the thread again. A Group repeats the nudge
// for goroutines that have changed threads. On platforms without the
// calls Current reports -1, Spread does nothing and NewGroup returns nil.
//
// Spin keeps a waiting goroutine on its thread, and its thread on its CPU,
// for a short window before the goroutine parks — but only while the
// run's busy threads, as Claim and ClaimPeers record them, fit the CPUs.
package place

// Package dpflow reproduces "Understanding Recursive Divide-and-Conquer
// Dynamic Programs in Fork-Join and Data-Flow Execution Models" (Nookala,
// Kong, Ahmad, Javanmard, Chowdhury, Harrison; IPPS/IPDPSW 2021) as a Go
// library.
//
// The repository contains both sides of the paper's comparison as real,
// runnable runtimes — a work-stealing fork-join pool (internal/forkjoin,
// the OpenMP-tasking analogue) and a Concurrent Collections data-flow
// runtime (internal/cnc, the Intel CnC analogue) — together with the three
// DP benchmarks implemented on both (GE and FW as the two instantiations of
// the recursion engine internal/gep, SW in internal/sw), the paper's
// analytical cache/task model (internal/model), a cache simulator standing
// in for PAPI (internal/cachesim), task-DAG builders for both execution
// models (internal/dag), and a discrete-event scheduler (internal/simsched)
// that reproduces the paper's 64-core and 192-core results on any machine.
//
// Start with examples/quickstart, regenerate the paper's figures with
// cmd/dpbench, and see DESIGN.md / EXPERIMENTS.md for the experiment
// inventory and measured-vs-paper comparison.
package dpflow

// Package core defines the shared vocabulary of the study: the execution
// models under comparison (fork-join vs data-flow), the benchmark variants
// the paper evaluates (Native-CnC, Tuner-CnC, Manual-CnC, OMP-Tasking plus
// the serial references), and the result records the harness and the
// simulator exchange.
//
// The paper's contribution is not a single algorithm but a controlled
// comparison; this package is the layer that makes the comparison uniform
// across the registered DP benchmarks (internal/bench), the two runtimes
// (internal/forkjoin, internal/cnc), the DAG builders (internal/dag) and the
// discrete-event machine simulator (internal/simsched).
package core

import "fmt"

// Variant identifies one of the implementations the paper compares
// (§IV-B lists the four parallel versions; the serial ones are references).
type Variant int

const (
	// SerialLoop is the loop-based serial implementation (Listing 2).
	SerialLoop Variant = iota
	// SerialRDP is the 2-way recursive divide-and-conquer algorithm run
	// serially: same operation order as the parallel versions, no runtime.
	SerialRDP
	// OMPTasking is the fork-join R-DP program (the paper's OpenMP
	// implementation, Listing 3), run on the forkjoin pool.
	OMPTasking
	// NativeCnC is the base CnC program without scheduling hints:
	// speculative steps with abort-and-requeue blocking gets.
	NativeCnC
	// TunerCnC is the CnC program with the pre-scheduling tuner (§III-D).
	TunerCnC
	// ManualCnC is the manually pre-scheduled CnC program: the full base
	// task graph is instantiated up front with pre-declared dependencies.
	ManualCnC
	// NonBlockingCnC is the §IV-B ablation: base steps poll their inputs
	// with non-blocking gets and re-put their own tag when data is missing.
	// The paper found it profitable only for small block sizes; it is not
	// part of the figures' series.
	NonBlockingCnC
)

// ParallelVariants lists the four variants of the paper's figures, in the
// paper's legend order: CnC, CnC_tuner, CnC_manual, OpenMP.
var ParallelVariants = []Variant{NativeCnC, TunerCnC, ManualCnC, OMPTasking}

// String returns the paper's series label for the variant.
func (v Variant) String() string {
	switch v {
	case SerialLoop:
		return "Serial"
	case SerialRDP:
		return "Serial_RDP"
	case OMPTasking:
		return "OpenMP"
	case NativeCnC:
		return "CnC"
	case TunerCnC:
		return "CnC_tuner"
	case ManualCnC:
		return "CnC_manual"
	case NonBlockingCnC:
		return "CnC_nonblocking"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Model is the execution model a variant belongs to.
type Model int

const (
	// ForkJoin: joins synchronise all spawned children (artificial
	// dependencies included).
	ForkJoin Model = iota
	// DataFlow: tasks fire when their true tile-level data dependencies
	// are satisfied.
	DataFlow
)

// String names the model.
func (m Model) String() string {
	if m == ForkJoin {
		return "fork-join"
	}
	return "data-flow"
}

// ModelOf returns the execution model of a parallel variant.
func ModelOf(v Variant) Model {
	if v == OMPTasking {
		return ForkJoin
	}
	return DataFlow
}

// IsCnC reports whether the variant runs on the CnC graph runtime (and so
// accepts graph-level machinery like tune hooks and discipline checkers).
func (v Variant) IsCnC() bool {
	switch v {
	case NativeCnC, TunerCnC, ManualCnC, NonBlockingCnC:
		return true
	}
	return false
}

// Point is one measured or simulated datum of a figure: an execution time
// for a (benchmark, machine, variant, n, base) combination.
type Point struct {
	Bench   string // registry name (bench.Benchmark.Name)
	Machine string
	Variant string  // series label ("CnC", "OpenMP", "Estimated", ...)
	N       int     // problem size (matrix side / sequence length)
	Base    int     // recursive base-case size
	Seconds float64 // execution time
}

// Series is a named curve of a figure: time as a function of base size.
type Series struct {
	Label  string
	Points []Point
}

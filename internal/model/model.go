// Package model prices the paper's analytical model (§IV-B) and derives
// the cost tables the discrete-event simulator runs on.
//
// The benchmark-specific arithmetic — task censuses, per-kind flop counts,
// the three-line cache-miss bounds and streaming traffic — lives with each
// benchmark behind the bench.Benchmark interface (internal/bench). This
// package keeps what is machine-dependent and benchmark-generic:
//
//  1. Cache misses. Per level the effective miss count is the compulsory
//     traffic when three m×m blocks fit and grows toward the benchmark's
//     streaming/bound regime when they do not. This is what produces
//     Table I and the "Estimated" curves.
//
//  2. Variant overheads. Each scheduling event of each variant is priced
//     using the machine's Overheads constants: OpenMP tasks pay a spawn,
//     CnC steps pay tag-put + scheduling, native blocking gets pay
//     expected abort/requeue re-executions, tuned variants pay dependency
//     checks, and the manual variant additionally pays the up-front
//     instantiation of the entire task graph.
package model

import (
	"fmt"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/machine"
	"dpflow/internal/simsched"
)

// LevelMisses returns the effective miss count of one base task at a cache
// level: compulsory when the three-block working set fits, the benchmark's
// streaming estimate otherwise.
func LevelMisses(b bench.Benchmark, kind dag.Kind, m int, lvl machine.CacheLevel) float64 {
	if lvl.Fits(bench.WorkingSetBytes(m)) {
		return bench.CompulsoryLines(m, lvl.LineBytes)
	}
	return b.StreamLines(kind, m, lvl.LineBytes)
}

// MemTime prices one base task's data movement through the hierarchy:
// every L1 miss is served by L2 at L1.MissCost, and so on down to memory.
func MemTime(mach *machine.Machine, b bench.Benchmark, kind dag.Kind, m int) float64 {
	t := LevelMisses(b, kind, m, mach.L1) * mach.L1.MissCost
	t += LevelMisses(b, kind, m, mach.L2) * mach.L2.MissCost
	l3 := LevelMisses(b, kind, m, mach.L3)
	t += l3 * mach.L3.MissCost
	// Lines missing in L3 go to memory.
	if !mach.L3.Fits(bench.WorkingSetBytes(m)) {
		t += l3 * mach.MemMissCost
	} else {
		t += bench.CompulsoryLines(m, mach.L3.LineBytes) * mach.MemMissCost * 0.1
	}
	return t
}

// ExecTime is the modelled execution time of one base task: compute plus
// data movement. Fork-join executions of prefetch-friendly benchmarks
// benefit from depth-first locality and effective prefetching (the
// machine's PrefetchFactor): the LIFO schedule re-visits the blocks a
// parent call just touched. Data-flow executions pay the full memory cost —
// the paper's §IV-B observation that coarse-grained data-flow irregularity
// defeats the prefetcher. SW reports itself prefetch-unfriendly: its tiles
// stream rows identically under both models, so neither side gets the
// discount there.
func ExecTime(mach *machine.Machine, b bench.Benchmark, kind dag.Kind, m int, forkJoin bool) float64 {
	mem := MemTime(mach, b, kind, m)
	if forkJoin && b.PrefetchFriendly() {
		mem *= mach.PrefetchFactor
	}
	return b.Flops(kind, m)*mach.FlopTime + mem
}

// abortFraction is the modelled fraction of blocking gets that fail on
// first execution under the native variant (each failure re-executes the
// step from scratch).
const abortFraction = 0.5

// tagTreeFactor amortises the recursive tag-expansion steps over base
// tasks: an 8-ary recursion tree has ≈ N/7 internal nodes.
const tagTreeFactor = 8.0 / 7.0

// manualSerialFraction is the share of the manual variant's up-front
// instantiation that cannot be overlapped with execution (the environment
// expands the task graph while only already-released tasks can run).
const manualSerialFraction = 0.35

// CostsFor builds the simulator cost table for one configuration. n is the
// problem size, base the requested base size (the effective tile side is
// gep.BaseSize(n, base)), totalTasks the number of base tasks in the DAG.
func CostsFor(mach *machine.Machine, b bench.Benchmark, n, base int, v core.Variant, totalTasks int) simsched.Costs {
	m := gep.BaseSize(n, base)
	var c simsched.Costs
	o := mach.Overheads
	fj := v == core.OMPTasking
	for k := 0; k < dag.NumKinds; k++ {
		kind := dag.Kind(k)
		if kind == dag.KindJoin {
			c.Overhead[k] = o.JoinFJ
			continue
		}
		c.Exec[k] = ExecTime(mach, b, kind, m, fj)
		switch v {
		case core.OMPTasking:
			c.Overhead[k] = o.SpawnFJ
		case core.NativeCnC:
			// Each of the task's blocking gets fails with probability
			// abortFraction, costing an abort/requeue plus another
			// scheduler round trip for the re-execution.
			c.Overhead[k] = o.TagPut*tagTreeFactor + o.StepSched +
				abortFraction*b.DepCount(kind)*(o.AbortRetry+0.5*o.StepSched)
		case core.TunerCnC:
			c.Overhead[k] = o.TagPut*tagTreeFactor + 0.3*o.StepSched + b.DepCount(kind)*o.DepCheck
		case core.ManualCnC:
			c.Overhead[k] = o.StepSched + b.DepCount(kind)*o.DepCheck + o.Instantiate
		default:
			c.Overhead[k] = o.TagPut
		}
	}
	switch v {
	case core.ManualCnC:
		c.Startup = float64(totalTasks) * o.Instantiate * manualSerialFraction
		c.SerialPerTask = o.ManualSerial
	case core.OMPTasking:
		c.SerialPerTask = o.FJSerial
	default:
		c.SerialPerTask = o.CnCSerial
	}
	return c
}

// EstimatedTime is the paper's "Estimated" series for the figures: total
// modelled work — using the per-level effective miss counts and zero
// recursion/scheduling overhead — divided fairly over the cores.
func EstimatedTime(mach *machine.Machine, b bench.Benchmark, n, base int) float64 {
	m := gep.BaseSize(n, base)
	tiles := n / m
	var total float64
	for k, count := range b.KindCounts(tiles) {
		if count == 0 {
			continue
		}
		total += float64(count) * ExecTime(mach, b, dag.Kind(k), m, false)
	}
	return total / float64(mach.Cores)
}

// EstimatedMaxMisses is the model side of Table I: the summed per-task
// upper bound on cache misses over the whole R-DP computation at the given
// base size (the bound is line-size dependent but capacity independent —
// "the cache cannot hold more than three lines").
func EstimatedMaxMisses(b bench.Benchmark, n, base, lineBytes int) float64 {
	m := gep.BaseSize(n, base)
	tiles := n / m
	var total float64
	for k, count := range b.KindCounts(tiles) {
		if count == 0 {
			continue
		}
		total += float64(count) * b.MaxMissBound(dag.Kind(k), m, lineBytes)
	}
	return total
}

// dominantKind is the benchmark's most numerous base-task kind at a
// representative tile count — KindD for the GEP family (updates dominate
// the census), KindSW for SW's single-kind wavefront.
func dominantKind(b bench.Benchmark) dag.Kind {
	kind, max := dag.Kind(0), -1
	for k, count := range b.KindCounts(8) {
		if count > max {
			kind, max = dag.Kind(k), count
		}
	}
	return kind
}

// Describe renders the model's view of one configuration, for dpbench's
// point view.
func Describe(mach *machine.Machine, b bench.Benchmark, n, base int) string {
	m := gep.BaseSize(n, base)
	kind := dominantKind(b)
	return fmt.Sprintf("%s %s n=%d base=%d: task exec D=%.3gs (flops %.3g, ws %dKB)",
		mach.Name, b.Name(), n, m,
		ExecTime(mach, b, kind, m, false),
		b.Flops(kind, m),
		bench.WorkingSetBytes(m)>>10)
}

// Package bench is the benchmark registry, keyed by name: each of the
// study's DP benchmarks registers one entry, and every cross-cutting layer —
// the analytical model, the figure/claims/memory/sched harness, the chaos
// matrix, the dist and serve tiers, the dpbench, dpverify and dpperf CLIs —
// reaches it through ByName or All. It is also the only place a
// core.Variant becomes a call: RunFlow holds the one variant switch, over
// the gep.Flow each algorithm package (gep, sw, chol, par) exports.
// Onboarding a new recurrence is then a one-package change: fill an entry
// in benchmarks.go — its problem builder, task graphs, census, per-kind
// dependency counts and the paper's closed forms — and Register it; the
// Benchmark methods are written once, over every entry (chol is the worked
// example; see DESIGN.md §3).
package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/matrix"
)

// ErrUnknownBenchmark is returned (wrapped) by ByName for names no
// benchmark registered, with the registered names in the message — never a
// silent fallback to some default benchmark.
var ErrUnknownBenchmark = errors.New("bench: unknown benchmark")

// ErrSpent is returned (wrapped) by Run and Verify on an instance whose
// Verify already succeeded: its single use is over.
var ErrSpent = errors.New("bench: instance already verified")

// RunOpts carries the optional machinery of one Instance.Run.
type RunOpts struct {
	// Workers is the CnC worker count (CnC variants).
	Workers int
	// Pool runs the fork-join variant; required for core.OMPTasking.
	Pool *forkjoin.Pool
	// Tune, when non-nil, receives the graph the run builds before it
	// starts — the chaos harness's fault hook and the memory report's
	// WithMemoryLimit hook. Ignored by non-CnC variants.
	Tune func(*cnc.Graph)
	// Trace, when non-nil, brackets every base-tile kernel invocation: the
	// returned func is called when the kernel finishes. dpperf's traced
	// pass reads kernel busy time through it.
	Trace func() func()
}

// Instance is one concrete problem of a benchmark: inputs generated from a
// seed plus the serial reference result. An Instance is single-use — one
// Run, then Verify against the reference. A successful Verify ends that
// use and drops the tables (NewInstance's go back to matrix's free list,
// FlowInstance's stay the caller's); a later Run or Verify returns ErrSpent.
type Instance interface {
	// Run executes the variant on the instance's working copy and returns
	// the CnC runtime stats (zero-valued for non-CnC variants).
	Run(ctx context.Context, v core.Variant, opts RunOpts) (gep.CnCStats, error)
	// Verify checks the result of the preceding Run against the serial
	// reference.
	Verify() error
}

// RunFlow runs recurrence f under variant v: the serial reference,
// fork-join on opts.Pool, or one of the CnC schedules. It is the one place
// a core.Variant becomes a call — every Instance.Run comes here.
// opts.Trace brackets every kernel; name labels errors and the CnC graph.
func RunFlow[T, K comparable](ctx context.Context, f *gep.Flow[T, K], name string, v core.Variant, opts RunOpts) (gep.CnCStats, error) {
	if opts.Trace != nil {
		traced, kernel, trace := *f, f.Kernel, opts.Trace
		traced.Kernel = func(k K, fr *determinacy.Frame) error {
			done := trace()
			err := kernel(k, fr)
			done()
			return err
		}
		f = &traced
	}
	switch v {
	case core.SerialRDP:
		return gep.CnCStats{}, f.Serial()
	case core.OMPTasking:
		if opts.Pool == nil {
			return gep.CnCStats{}, fmt.Errorf("bench: %s: OMPTasking requires RunOpts.Pool", name)
		}
		return gep.CnCStats{}, f.ForkJoin(ctx, opts.Pool)
	case core.NativeCnC, core.TunerCnC, core.ManualCnC, core.NonBlockingCnC:
		return f.Run(ctx, name+"-"+v.String(), opts.Workers, v, opts.Tune)
	}
	return gep.CnCStats{}, fmt.Errorf("bench: %s does not drive variant %s", name, v)
}

// instance is every benchmark's Instance: the recurrence over the working
// table, and the serial reference's table. Every interpreter applies the
// same per-element operations in the same order, so Verify demands the
// tables be bit-identical. A nil flow marks a spent instance.
type instance[T, K comparable] struct {
	name      string
	flow      *gep.Flow[T, K]
	work, ref *matrix.Dense
	ran       bool
	// owned: NewInstance built the tables, so Verify may release them —
	// both runtimes drain before Run returns, and no item is a tile view.
	owned bool
}

// FlowInstance is the Instance of recurrence f over its table work,
// verified bit for bit against ref — for a recurrence the registry does not
// hold (dpverify's par).
func FlowInstance[T, K comparable](name string, f *gep.Flow[T, K], work, ref *matrix.Dense) Instance {
	return &instance[T, K]{name: name, flow: f, work: work, ref: ref}
}

func (in *instance[T, K]) Run(ctx context.Context, v core.Variant, opts RunOpts) (gep.CnCStats, error) {
	if in.flow == nil {
		return gep.CnCStats{}, fmt.Errorf("bench: %s: %w", in.name, ErrSpent)
	}
	in.ran = true
	return RunFlow(ctx, in.flow, in.name, v, opts)
}

func (in *instance[T, K]) Verify() error {
	if in.flow == nil {
		return fmt.Errorf("bench: %s: %w", in.name, ErrSpent)
	}
	if !in.ran {
		return fmt.Errorf("bench: %s: Verify before Run", in.name)
	}
	if err := matrix.Diff(in.work, in.ref); err != nil {
		return fmt.Errorf("bench: %s result disagrees with the serial reference: %w", in.name, err)
	}
	if in.owned {
		in.work.Release()
		in.ref.Release()
	}
	in.flow, in.work, in.ref = nil, nil, nil
	return nil
}

// Benchmark is one self-describing DP benchmark. The methods fall in three
// groups: identity (Name), execution (NewInstance → Instance), and the
// static descriptions the model/harness layers consume — DAG builders for
// both execution models and the paper's analytical-model closed forms.
type Benchmark interface {
	// Name is the registry key: the lowercase token CLIs, job specs and
	// reports use (dpbench -exp point -bench <name>).
	Name() string

	// NewInstance builds a fresh problem of size n at the given base size,
	// deterministically from seed, with its serial reference precomputed.
	NewInstance(n, base int, seed int64) (Instance, error)

	// Dataflow builds the analytic true-dependency task graph at tile
	// granularity, ForkJoin the ordering DAG the Spawn/Wait schedule
	// imposes (joins included).
	Dataflow(tiles int) dag.Graph
	ForkJoin(tiles int) dag.Graph

	// TotalTasks is the closed-form base-task census for a tiles×tiles
	// problem; KindCounts breaks it down by dag.Kind (joins excluded).
	TotalTasks(tiles int) int
	KindCounts(tiles int) [dag.NumKinds]int

	// Flops, MaxMissBound and StreamLines are the paper's per-base-task
	// closed forms (§IV-B): floating-point operations, the three-line
	// cache-miss upper bound, and the streaming-regime line traffic of one
	// m×m base task of the given kind.
	Flops(kind dag.Kind, m int) float64
	MaxMissBound(kind dag.Kind, m, lineBytes int) float64
	StreamLines(kind dag.Kind, m, lineBytes int) float64

	// SpecGraph builds the static CnC specification graph — collections
	// and prescribe/produce/consume edges, Listing 1 style — without
	// running it (dpbench -exp spec's text and DOT renderings).
	SpecGraph() *cnc.Graph

	// DepCount is the number of pre-declared dependencies / blocking gets
	// of a base task of the given kind (prices the CnC variant overheads).
	DepCount(kind dag.Kind) float64
	// PrefetchFriendly reports whether the fork-join schedule's depth-first
	// locality lets the hardware prefetcher discount the benchmark's memory
	// time (true for the GE family, false for SW's row streams).
	PrefetchFriendly() bool

	// Wire returns the benchmark's on-the-wire vocabulary for a tiles×tiles
	// problem (tiles a power of two): sample values of every tag and item
	// type its CnC graph puts — the zero-value tag, the root tag, the first
	// and last base tags of the flat walk, and the first and last key of
	// every item collection. The distributed runtime (internal/dist)
	// registers these concrete types with its codec and the codec
	// round-trip tests sweep them.
	Wire(tiles int) WireVocab
}

// WireVocab is one benchmark's on-the-wire vocabulary: the concrete tag and
// item types its CnC graph exchanges, as sample values, so the distributed
// codec can register and round-trip them.
type WireVocab struct {
	// Tags are sample control-tag values: the zero value, the root and the
	// flat walk's first and last base tags.
	Tags []any
	// Items are sample (collection, key, value) triples: the first and last
	// key of every collection the problem fills.
	Items []WireItem
}

// WireItem is one sample item of a benchmark's vocabulary.
type WireItem struct {
	Coll string
	Key  any
	Val  any
}

var registry = map[string]Benchmark{}

// Register adds a benchmark to the registry under its Name; a duplicate
// name panics (a wiring bug, caught at init time).
func Register(b Benchmark) {
	key := strings.ToLower(b.Name())
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("bench: duplicate registration of %q", b.Name()))
	}
	registry[key] = b
}

// ByName resolves a benchmark by name, case-insensitively, or reports
// ErrUnknownBenchmark.
func ByName(name string) (Benchmark, error) {
	if b, ok := registry[strings.ToLower(name)]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownBenchmark, name, NameList())
}

// All returns every registered benchmark, sorted by name — the loop driver
// for registry-wide reports and conformance tests.
func All() []Benchmark {
	out := make([]Benchmark, 0, len(registry))
	for _, b := range registry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// NameList renders the registered names for usage messages.
func NameList() string {
	var names []string
	for _, b := range All() {
		names = append(names, b.Name())
	}
	return strings.Join(names, ", ")
}

package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
	"dpflow/internal/ge"
	"dpflow/internal/gep"
	"dpflow/internal/matrix"
)

// tables exposes an instance's working and reference tables to the tests.
func (in *instance[T, K]) tables() (work, ref *matrix.Dense) { return in.work, in.ref }

// tablesOf returns the tables of a registry instance.
func tablesOf(in Instance) (work, ref *matrix.Dense) {
	return in.(interface{ tables() (_, _ *matrix.Dense) }).tables()
}

// The conformance suite runs automatically against every registered
// benchmark — register a fifth benchmark and it is held to the same
// contract with no new test code.

const (
	confN       = 64
	confBase    = 8
	confWorkers = 3
	confSeed    = 17
)

// TestConformanceVariantsAgree: every variant of every benchmark must
// reproduce the serial reference exactly (all drivers apply bit-identical
// per-element operations, so Verify demands equality, not tolerance). The
// CnC rows also hold the runtime to its targeted-wake claim: a push signals
// at most one parked worker, so a run's wakeups are bounded by its
// dispatches, every one of which starts an attempt — a broadcast wake would
// bill workers × pushes.
func TestConformanceVariantsAgree(t *testing.T) {
	pool := forkjoin.NewPool(forkjoin.Config{Workers: confWorkers})
	defer pool.Close()
	variants := []core.Variant{core.SerialRDP, core.OMPTasking,
		core.NativeCnC, core.TunerCnC, core.ManualCnC, core.NonBlockingCnC}
	for _, b := range All() {
		for _, v := range variants {
			t.Run(b.Name()+"/"+v.String(), func(t *testing.T) {
				in, err := b.NewInstance(confN, confBase, confSeed)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := in.Run(context.Background(), v, RunOpts{Workers: confWorkers, Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				if err := in.Verify(); err != nil {
					t.Fatal(err)
				}
				if !v.IsCnC() {
					return
				}
				if stats.Wakeups > stats.StepsStarted {
					t.Fatalf("Wakeups %d exceeds dispatches (%d started)", stats.Wakeups, stats.StepsStarted)
				}
				// Every attempt either completes or aborts, and a base task
				// aborts at most once: its declared reads are its whole wait.
				if stats.StepsStarted != stats.StepsDone+stats.Aborts || stats.Aborts > uint64(stats.BaseTasks) {
					t.Fatalf("started %d, done %d, aborts %d, base tasks %d: want started = done + aborts and aborts ≤ base tasks",
						stats.StepsStarted, stats.StepsDone, stats.Aborts, stats.BaseTasks)
				}
			})
		}
	}
}

// TestConformanceKernelsRunOnWorkers: every CnC variant of every benchmark
// runs its base kernels on the run's leased workers, never on the goroutine
// that called Run — the environment's. RunContext never runs a unit on its
// caller, so one kernel there is a step run inline at its tag put, and a
// variant whose recursion runs that way is serial whatever its worker count.
// A run builds one graph: RunOpts.Tune sees exactly one.
func TestConformanceKernelsRunOnWorkers(t *testing.T) {
	const tiles = 8
	for _, b := range All() {
		for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC, core.NonBlockingCnC} {
			t.Run(b.Name()+"/"+v.String(), func(t *testing.T) {
				in, err := b.NewInstance(tiles*confBase, confBase, confSeed)
				if err != nil {
					t.Fatal(err)
				}
				caller := goid()
				var kernels, onCaller atomic.Int64
				trace := func() func() {
					kernels.Add(1)
					if goid() == caller {
						onCaller.Add(1)
					}
					return func() {}
				}
				tunes := 0
				tune := func(*cnc.Graph) { tunes++ }
				if _, err := in.Run(context.Background(), v, RunOpts{Workers: 2, Trace: trace, Tune: tune}); err != nil {
					t.Fatal(err)
				}
				if tunes != 1 {
					t.Fatalf("Tune called %d times in one Run, want 1", tunes)
				}
				if err := in.Verify(); err != nil {
					t.Fatal(err)
				}
				if kernels.Load() == 0 || onCaller.Load() != 0 {
					t.Fatalf("%d of %d base kernels ran on the goroutine that called Run, want 0",
						onCaller.Load(), kernels.Load())
				}
			})
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	var b [64]byte
	f := bytes.Fields(b[:runtime.Stack(b[:], false)])
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// TestConformanceLeakFree: the CnC schedules that declare get-counts must
// garbage-collect every item receipt by quiesce on every benchmark —
// LiveItems 0, everything put eventually freed, and a live high-water mark
// strictly below the total put count.
func TestConformanceLeakFree(t *testing.T) {
	for _, b := range All() {
		for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC} {
			t.Run(b.Name()+"/"+v.String(), func(t *testing.T) {
				in, err := b.NewInstance(confN, confBase, confSeed)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := in.Run(context.Background(), v, RunOpts{Workers: confWorkers})
				if err != nil {
					t.Fatal(err)
				}
				if err := in.Verify(); err != nil {
					t.Fatal(err)
				}
				if stats.ItemsPut == 0 {
					t.Fatal("ItemsPut = 0; stats not wired")
				}
				if stats.LiveItems != 0 {
					t.Fatalf("LiveItems = %d after quiesce, want 0", stats.LiveItems)
				}
				if stats.ItemsFreed != int64(stats.ItemsPut) {
					t.Fatalf("ItemsFreed = %d, want %d", stats.ItemsFreed, stats.ItemsPut)
				}
				if stats.PeakLiveItems >= int64(stats.ItemsPut) {
					t.Fatalf("PeakLiveItems = %d, want < %d (no item ever died)",
						stats.PeakLiveItems, stats.ItemsPut)
				}
			})
		}
	}
}

// TestConformanceCancellation: a pre-cancelled context must unwind every
// parallel variant of every benchmark promptly with context.Canceled.
func TestConformanceCancellation(t *testing.T) {
	pool := forkjoin.NewPool(forkjoin.Config{Workers: confWorkers})
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range All() {
		for _, v := range core.ParallelVariants {
			t.Run(b.Name()+"/"+v.String(), func(t *testing.T) {
				in, err := b.NewInstance(confN, confBase, confSeed)
				if err != nil {
					t.Fatal(err)
				}
				_, err = in.Run(ctx, v, RunOpts{Workers: confWorkers, Pool: pool})
				if v == core.OMPTasking {
					// The fork-join pool observes cancellation between task
					// dispatches, so a pre-cancelled run may still complete;
					// a completed run must then verify.
					if err == nil {
						if verr := in.Verify(); verr != nil {
							t.Fatalf("uncancelled run failed verification: %v", verr)
						}
						return
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("Run with cancelled ctx = %v, want context.Canceled or nil", err)
					}
					return
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Run with cancelled ctx = %v, want context.Canceled", err)
				}
			})
		}
	}
}

// TestConformanceCensus cross-checks each benchmark's three structural
// views: the closed-form TotalTasks, the per-kind breakdown, and the
// materialised DAGs of both execution models.
func TestConformanceCensus(t *testing.T) {
	for _, b := range All() {
		for _, tiles := range []int{1, 2, 4, 8} {
			df, fj := b.Dataflow(tiles), b.ForkJoin(tiles)
			if err := dag.CheckAcyclic(df); err != nil {
				t.Fatalf("%s tiles=%d dataflow: %v", b.Name(), tiles, err)
			}
			if err := dag.CheckAcyclic(fj); err != nil {
				t.Fatalf("%s tiles=%d fork-join: %v", b.Name(), tiles, err)
			}
			total := b.TotalTasks(tiles)
			sum := 0
			for _, c := range b.KindCounts(tiles) {
				sum += c
			}
			if sum != total {
				t.Fatalf("%s tiles=%d: KindCounts sum %d, TotalTasks %d", b.Name(), tiles, sum, total)
			}
			if got := dag.Analyze(df).Tasks; got != total {
				t.Fatalf("%s tiles=%d: dataflow has %d tasks, TotalTasks %d", b.Name(), tiles, got, total)
			}
			if got := dag.Analyze(fj).Tasks; got != total {
				t.Fatalf("%s tiles=%d: fork-join has %d tasks, TotalTasks %d", b.Name(), tiles, got, total)
			}
		}
	}
}

// itemNames names the receipt the CnC program puts for each task of the
// entry's data-flow graph, "collection[key]" as the discipline checker
// records it: the key through the Flow's numbering — the data-flow graph's
// — and the collection through its Coll.
func (g taskGraphs[T, K]) itemNames(tiles int) []string {
	f, err := g.flow(tiles)
	if err != nil {
		panic(err)
	}
	names := make([]string, f.N)
	for id := range names {
		k, c := f.Key(id), 0
		if f.Coll != nil {
			c = f.Coll(k)
		}
		names[id] = fmt.Sprintf("%s[%v]", f.Colls[c][2], k)
	}
	return names
}

// TestConformanceRuntimeMatchesSimulator ties the two halves of the
// reproduction together: the DAG internal/simsched prices must be the one
// the runtime enforces. Every base step's completed gets — the items it
// released, attributed to it by the discipline checker — must be exactly
// the receipts of the predecessors Dataflow(tiles) gives its task, under
// speculative execution (Native) and under pre-declared dependencies
// (Tuner, Manual) alike.
func TestConformanceRuntimeMatchesSimulator(t *testing.T) {
	for _, b := range All() {
		for _, tiles := range []int{2, 4, 8} {
			df := b.Dataflow(tiles)
			names := b.(interface{ itemNames(int) []string }).itemNames(tiles)
			want := make(map[string][]string, df.Len())
			for id := 0; id < df.Len(); id++ {
				from := names[id]
				if _, ok := want[from]; !ok {
					want[from] = nil // sources have an entry too
				}
				df.EachSucc(id, func(s int) {
					to := names[s]
					want[to] = append(want[to], from)
				})
			}
			for _, preds := range want {
				sort.Strings(preds)
			}
			for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC} {
				t.Run(fmt.Sprintf("%s/%d/%v", b.Name(), tiles, v), func(t *testing.T) {
					in, err := b.NewInstance(tiles*confBase, confBase, confSeed)
					if err != nil {
						t.Fatal(err)
					}
					dc := determinacy.NewDisciplineChecker()
					tune := func(g *cnc.Graph) { g.WithDisciplineCheck(dc) }
					if _, err := in.Run(context.Background(), v, RunOpts{Workers: confWorkers, Tune: tune}); err != nil {
						t.Fatal(err)
					}
					got := dc.Reads()
					if len(got) != len(want) {
						t.Fatalf("the run put %d items, the simulated DAG has %d tasks", len(got), len(want))
					}
					for item, preds := range want {
						reads, ok := got[item]
						if !ok {
							t.Fatalf("task %s of the simulated DAG never ran", item)
						}
						if fmt.Sprint(reads) != fmt.Sprint(preds) {
							t.Fatalf("step of %s completed gets %v, the simulated DAG gives it predecessors %v", item, reads, preds)
						}
					}
				})
			}
		}
	}
}

// TestConformanceForkJoinMatchesSimulator is the fork-join half of the tie
// between runtime and simulator: the fork-join DAG internal/simsched prices
// must be the one the pool runs. A join node's in-edges are exactly the
// calls of its stage, and the runtime spawns exactly the calls of the
// stages of more than one call — a stage of one call runs on the caller,
// with no join, in both — so a run's spawn count must be 1 (the root) plus
// the in-degrees of ForkJoin(tiles)'s join nodes.
func TestConformanceForkJoinMatchesSimulator(t *testing.T) {
	for _, b := range All() {
		for _, tiles := range []int{2, 4, 8} {
			fj := b.ForkJoin(tiles)
			want := uint64(1)
			for id := 0; id < fj.Len(); id++ {
				if fj.Kind(id) == dag.KindJoin {
					want += uint64(fj.InDeg(id))
				}
			}
			in, err := b.NewInstance(tiles*confBase, confBase, confSeed)
			if err != nil {
				t.Fatal(err)
			}
			pool := forkjoin.NewPool(forkjoin.Config{Workers: confWorkers})
			_, err = in.Run(context.Background(), core.OMPTasking, RunOpts{Pool: pool})
			pool.Close()
			if err == nil {
				err = in.Verify()
			}
			if err != nil {
				t.Fatalf("%s tiles=%d: %v", b.Name(), tiles, err)
			}
			if got := pool.Stats().Spawned; got != want {
				t.Fatalf("%s tiles=%d: the run spawned %d tasks, the simulated fork-join DAG's joins account for %d",
					b.Name(), tiles, got, want)
			}
		}
	}
}

// TestConformanceInstanceSingleUse: Verify without a Run must not pass
// trivially for score-carrying benchmarks, and a failed-run instance must
// not verify (spot-checked via sw, whose Verify guards explicitly). A
// successful Verify ends the instance's use: a second Verify and a later
// Run return ErrSpent, and the Run reaches no kernel — its tables went
// back to matrix's free list.
func TestConformanceInstanceSingleUse(t *testing.T) {
	b, err := ByName("sw")
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.NewInstance(confN, confBase, confSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(); err == nil {
		t.Fatal("sw Verify before Run succeeded; want error")
	}
	kernels := 0
	opts := RunOpts{Trace: func() func() { kernels++; return func() {} }}
	if _, err := in.Run(context.Background(), core.SerialRDP, opts); err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(); !errors.Is(err, ErrSpent) {
		t.Fatalf("second Verify err = %v, want ErrSpent", err)
	}
	ran := kernels
	if _, err := in.Run(context.Background(), core.SerialRDP, opts); !errors.Is(err, ErrSpent) {
		t.Fatalf("Run after Verify err = %v, want ErrSpent", err)
	}
	if kernels != ran {
		t.Fatalf("Run after Verify ran %d kernels, want none", kernels-ran)
	}
}

// TestFlowInstanceKeepsCallerTables: FlowInstance's tables are the
// caller's, so a verified instance releases none of them — two instances
// sharing one reference both verify, and the reference survives.
func TestFlowInstanceKeepsCallerTables(t *testing.T) {
	x, _ := ge.NewSystem(confN, rand.New(rand.NewSource(confSeed)))
	ref := x.Clone()
	f, err := gep.GE.Flow(ref, confBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Serial(); err != nil {
		t.Fatal(err)
	}
	want := ref.Clone()
	for i := range 2 {
		work := x.Clone()
		f, err := gep.GE.Flow(work, confBase)
		if err != nil {
			t.Fatal(err)
		}
		in := FlowInstance("ge", f, work, ref)
		if _, err := in.Run(context.Background(), core.NativeCnC, RunOpts{Workers: confWorkers}); err != nil {
			t.Fatal(err)
		}
		if err := in.Verify(); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if err := matrix.Diff(work, want); err != nil {
			t.Fatalf("instance %d: caller's work table changed by Verify: %v", i, err)
		}
	}
	if err := matrix.Diff(ref, want); err != nil {
		t.Fatalf("shared reference changed: %v", err)
	}
}

// TestConformanceRecycledInputs: an instance built right after a same-seed
// one was verified (its dirty tables released to the free list) has
// byte-identical tables to one built before — a recycled array leaks no
// state. At least one benchmark's rebuild must really take a released
// array (the free list is a sync.Pool, which may drop some).
func TestConformanceRecycledInputs(t *testing.T) {
	reused := 0
	for _, b := range All() {
		t.Run(b.Name(), func(t *testing.T) {
			first, err := b.NewInstance(confN, confBase, confSeed)
			if err != nil {
				t.Fatal(err)
			}
			w0, r0 := tablesOf(first)
			wantWork, wantRef := w0.Clone(), r0.Clone()
			released := []*float64{&w0.Data()[0], &r0.Data()[0]}
			if _, err := first.Run(context.Background(), core.NativeCnC, RunOpts{Workers: confWorkers}); err != nil {
				t.Fatal(err)
			}
			if matrix.Equal(w0, wantWork) {
				t.Fatal("the run left its work table as built; a leak would not show")
			}
			if err := first.Verify(); err != nil {
				t.Fatal(err)
			}
			next, err := b.NewInstance(confN, confBase, confSeed)
			if err != nil {
				t.Fatal(err)
			}
			w1, r1 := tablesOf(next)
			if err := matrix.Diff(w1, wantWork); err != nil {
				t.Fatalf("work table after recycling: %v", err)
			}
			if err := matrix.Diff(r1, wantRef); err != nil {
				t.Fatalf("reference table after recycling: %v", err)
			}
			for _, p := range []*float64{&w1.Data()[0], &r1.Data()[0]} {
				if slices.Contains(released, p) {
					reused++
				}
			}
		})
	}
	if reused == 0 {
		t.Fatal("no rebuild took a released array; the test saw no recycling")
	}
}

// TestConformanceRunRefusesUndrivenVariants: Instance.Run is the one place a
// variant becomes a call, so what it does not drive it must refuse by name
// rather than run something else — core.SerialLoop (each benchmark's loop
// reference lives with its kernels; no instance drives it), a variant
// outside the enum, and OMPTasking without the pool it needs.
func TestConformanceRunRefusesUndrivenVariants(t *testing.T) {
	for _, b := range All() {
		for _, tc := range []struct {
			v    core.Variant
			want string
		}{
			{core.SerialLoop, core.SerialLoop.String()},
			{core.Variant(99), core.Variant(99).String()},
			{core.OMPTasking, "RunOpts.Pool"},
		} {
			t.Run(b.Name()+"/"+tc.v.String(), func(t *testing.T) {
				in, err := b.NewInstance(confN, confBase, confSeed)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := in.Run(context.Background(), tc.v, RunOpts{Workers: confWorkers})
				if err == nil {
					t.Fatalf("Run(%v) succeeded; want a refusal", tc.v)
				}
				if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), b.Name()) {
					t.Fatalf("Run(%v) err = %q, want it to name %q and %q", tc.v, err, tc.want, b.Name())
				}
				if stats.BaseTasks != 0 || stats.StepsDone != 0 {
					t.Fatalf("refused Run(%v) still ran: %d base tasks, %d steps", tc.v, stats.BaseTasks, stats.StepsDone)
				}
			})
		}
	}
}

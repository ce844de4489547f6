package chaos_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/chaos"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
)

// Sweep geometry: 4x4 tiles per benchmark, small enough that 20 seeds x 4
// faults x every registered benchmark stays fast under -race, large enough
// that every variant exercises real cross-tile dependencies.
const (
	chaosN       = 32
	chaosBase    = 8
	chaosWorkers = 4
	chaosSeeds   = 20
)

// cncVariants are the three CnC schedules the chaos sweep rotates through
// by seed, so every (shape, fault) pair sees all of them.
var cncVariants = []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC}

// newBenchTarget builds a fresh single-use instance of a registered
// benchmark as a chaos target: the work state is private to the run,
// Instance.Run threads the runner's tune hook into every graph the
// benchmark builds, and Verify is the instance's own oracle (serial
// reference comparison, plus the score check for SW).
func newBenchTarget(t *testing.T, b bench.Benchmark, seed int64, v core.Variant) chaos.Target {
	t.Helper()
	in, err := b.NewInstance(chaosN, chaosBase, seed)
	if err != nil {
		t.Fatalf("%s instance: %v", b.Name(), err)
	}
	return chaos.Target{
		Name: b.Name() + "/" + v.String(),
		Run: func(ctx context.Context, tune func(*cnc.Graph)) error {
			_, err := in.Run(ctx, v, bench.RunOpts{Workers: chaosWorkers, Tune: tune})
			return err
		},
		Verify: in.Verify,
	}
}

// TestChaosSweep is the acceptance matrix: every registered benchmark
// under every fault for chaosSeeds seeds, rotating through the CnC
// variants.
// Each run must either complete with a table equal to the serial reference
// (possibly after retries) or return an error naming the injected fault,
// and the hard deadline must never fire.
func TestChaosSweep(t *testing.T) {
	const times = 5
	r := &chaos.Runner{
		Timeout:     60 * time.Second,
		StallWindow: 2 * time.Second,
		Retry:       times, // >= the fault budget: recoverable faults must be absorbed
		Discipline:  true,  // every run is discipline-checked; zero violations expected
	}
	for _, b := range bench.All() {
		for _, mkFault := range []func() chaos.Fault{
			func() chaos.Fault { return &chaos.StepError{Prob: 0.05, Times: times} },
			func() chaos.Fault { return &chaos.StepPanic{Prob: 0.05, Times: times} },
			func() chaos.Fault { return &chaos.DelayedPut{Prob: 0.05, Times: times, Delay: 500 * time.Microsecond} },
			func() chaos.Fault { return &chaos.DropTag{Prob: 0.02, Times: 1} },
		} {
			fault := mkFault()
			t.Run(b.Name()+"/"+fault.Name(), func(t *testing.T) {
				t.Parallel()
				injected := 0
				for seed := int64(0); seed < chaosSeeds; seed++ {
					v := cncVariants[seed%int64(len(cncVariants))]
					target := newBenchTarget(t, b, seed, v)
					fault := mkFault() // fresh budget per run
					res := r.Drive(target, fault, seed)
					injected += res.Injections
					if res.DeadlineFired {
						t.Fatalf("seed %d %s: hard deadline fired (stalled=%v blocked=%v)",
							seed, target.Name, res.Stalled, res.Blocked)
					}
					// Faults may fail runs, but they must never be able to
					// break the dataflow discipline: no injected error,
					// panic, delay, or drop may manufacture a double put or
					// a get-count overdraw.
					if len(res.Violations) > 0 {
						t.Fatalf("seed %d %s: fault produced discipline violations: %v",
							seed, target.Name, res.Violations)
					}
					if res.Err == nil {
						// Completed and verified against the serial
						// reference — the leak-freedom claim must hold
						// too: these graphs declare get-counts, so every
						// item put must have been freed despite the
						// injected retries, re-reads, and delays.
						if res.LiveItems != 0 {
							t.Fatalf("seed %d %s: verified run leaked %d items (freed %d)",
								seed, target.Name, res.LiveItems, res.ItemsFreed)
						}
						if res.ItemsFreed == 0 {
							t.Fatalf("seed %d %s: verified run freed no items; get-counts not wired", seed, target.Name)
						}
						if res.Discipline.Puts == 0 {
							t.Fatalf("seed %d %s: discipline checker saw no puts; checking is vacuous", seed, target.Name)
						}
						continue
					}
					// A failed run must name the fault precisely and must
					// stem from an actual injection, not a runtime bug.
					if res.Injections == 0 {
						t.Fatalf("seed %d %s: error with zero injections: %v", seed, target.Name, res.Err)
					}
					if !errors.Is(res.Err, chaos.ErrInjected) && !strings.Contains(res.Err.Error(), fault.Name()) {
						t.Fatalf("seed %d %s: error does not name the fault: %v", seed, target.Name, res.Err)
					}
					if fault.Recoverable() {
						// Retry >= Times guarantees recovery for pre-body faults.
						t.Fatalf("seed %d %s: recoverable fault %s not absorbed by retry budget: %v",
							seed, target.Name, fault.Name(), res.Err)
					}
				}
				if injected == 0 {
					t.Fatalf("%s/%s: fault never fired across %d seeds — sweep is vacuous",
						b.Name(), fault.Name(), chaosSeeds)
				}
			})
		}
	}
}

// TestRunnerStallPath drives a target that livelocks on its own (a
// NonBlockingCnC-style re-put loop) under a fault that never fires, and
// checks the Runner's watchdog exit: cancelled run, Stalled set, deadline
// untouched, error wrapped with the run's identity.
func TestRunnerStallPath(t *testing.T) {
	r := &chaos.Runner{Timeout: 30 * time.Second, StallWindow: 250 * time.Millisecond}
	target := chaos.Target{
		Name: "livelock",
		Run: func(ctx context.Context, tune func(*cnc.Graph)) error {
			g := cnc.NewGraph("livelock", chaosWorkers)
			items := cnc.NewItemCollection[int, int](g, "it")
			tags := cnc.NewTagCollection[int](g, "tg", false)
			step := cnc.NewStepCollection(g, "s", func(i int) error {
				if _, ok := items.TryGet(99); !ok {
					tags.Put(i)
				}
				return nil
			})
			tags.Prescribe(step)
			tune(g)
			return g.RunContext(ctx, func() { tags.Put(1) })
		},
	}
	res := r.Drive(target, &chaos.StepError{Prob: 1e-12, Times: 1}, 1)
	if res.Err == nil || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Err = %v, want wrapped context.Canceled from the watchdog", res.Err)
	}
	if !res.Stalled {
		t.Fatal("Result.Stalled not set")
	}
	if res.DeadlineFired {
		t.Fatal("hard deadline fired; the watchdog should have cancelled long before")
	}
	if !strings.Contains(res.Err.Error(), "livelock") {
		t.Fatalf("Err does not identify the run: %v", res.Err)
	}
}

// TestRunnerVerifyFailureNamesFault checks the corrupted-result path: a
// run that completes but fails verification must produce an ErrInjected-
// wrapped error naming the fault.
func TestRunnerVerifyFailureNamesFault(t *testing.T) {
	r := &chaos.Runner{Timeout: 10 * time.Second}
	target := chaos.Target{
		Name:   "always-wrong",
		Run:    func(ctx context.Context, tune func(*cnc.Graph)) error { return nil },
		Verify: func() error { return errors.New("result mismatch") },
	}
	res := r.Drive(target, &chaos.DropTag{Prob: 1, Times: 1}, 3)
	if !errors.Is(res.Err, chaos.ErrInjected) {
		t.Fatalf("Err = %v, want ErrInjected wrap", res.Err)
	}
	if !strings.Contains(res.Err.Error(), "drop-tag") || !strings.Contains(res.Err.Error(), "always-wrong") {
		t.Fatalf("Err does not name fault and target: %v", res.Err)
	}
}

// TestRunnerDetectsLeak drives a target whose graph declares a get-count
// higher than the actual read count: the run completes and verifies, but
// items stay live, and the runner must flag the leak as an error.
func TestRunnerDetectsLeak(t *testing.T) {
	r := &chaos.Runner{Timeout: 10 * time.Second}
	target := chaos.Target{
		Name: "leaky",
		Run: func(ctx context.Context, tune func(*cnc.Graph)) error {
			g := cnc.NewGraph("leaky", 1)
			tune(g)
			items := cnc.NewItemCollection[int, int](g, "items")
			items.WithGetCount(func(int) int { return 2 }) // actual reads: 1
			tags := cnc.NewTagCollection[int](g, "tags", false)
			step := cnc.NewStepCollection(g, "read", func(i int) error {
				items.Get(i)
				return nil
			})
			step.WithGets(func(i int) []cnc.Dep { return []cnc.Dep{items.Key(i)} })
			tags.Prescribe(step)
			return g.RunContext(ctx, func() {
				items.Put(1, 10)
				tags.Put(1)
			})
		},
		Verify: func() error { return nil },
	}
	res := r.Drive(target, &chaos.DropTag{Prob: 0, Times: 0}, 1)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "leaked") {
		t.Fatalf("Err = %v, want leak report", res.Err)
	}
	if res.LiveItems != 1 || res.ItemsFreed != 0 {
		t.Fatalf("LiveItems = %d, ItemsFreed = %d, want 1 live / 0 freed", res.LiveItems, res.ItemsFreed)
	}
}

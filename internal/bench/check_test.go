package bench

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/gep"
)

// graphInstance is a hand-built run as an Instance: run builds and runs
// its graphs, calling tune on each; verify, when set, is its oracle.
type graphInstance struct {
	run    func(ctx context.Context, tune func(*cnc.Graph)) error
	verify func() error
}

func (gi graphInstance) Run(ctx context.Context, _ core.Variant, opts RunOpts) (gep.CnCStats, error) {
	return gep.CnCStats{}, gi.run(ctx, opts.Tune)
}

func (gi graphInstance) Verify() error {
	if gi.verify == nil {
		return nil
	}
	return gi.verify()
}

// A run that verifies but leaves an item live — its get-count declares two
// reads, one happens — fails the leak rider, and the error names the count.
func TestCheckLeakRider(t *testing.T) {
	inst := graphInstance{run: func(ctx context.Context, tune func(*cnc.Graph)) error {
		g := cnc.NewGraph("leaky", 1)
		items := cnc.NewItemCollection[int, int](g, "it").WithGetCount(func(int) int { return 2 })
		tags := cnc.NewTagCollection[int](g, "tg", false)
		step := cnc.NewStepCollection(g, "read", func(i int) error {
			items.Get(i)
			return nil
		})
		step.WithGets(func(i int) []cnc.Dep { return []cnc.Dep{items.Key(i)} })
		tags.Prescribe(step)
		tune(g)
		return g.RunContext(ctx, func() {
			items.Put(1, 10)
			tags.Put(1)
		})
	}}
	c := Check{}.Run(context.Background(), inst, core.NativeCnC, RunOpts{})
	if c.Err == nil || !strings.Contains(c.Err.Error(), "leaked 1 of 1 items") {
		t.Fatalf("Err = %v, want the leak rider naming 1 of 1 items", c.Err)
	}
	if c.LiveItems != 1 {
		t.Fatalf("LiveItems = %d, want 1", c.LiveItems)
	}
}

// An environment put is never throttled, so one larger than the graph's
// limit peaks over it without a stall: the peak rider fails the run.
func TestCheckPeakRider(t *testing.T) {
	const limit = 64
	inst := graphInstance{run: func(ctx context.Context, tune func(*cnc.Graph)) error {
		g := cnc.NewGraph("over", 1).WithMemoryLimit(limit)
		items := cnc.NewItemCollection[int, int](g, "it").WithSizeOf(func(int) int { return 4 * limit })
		tune(g)
		return g.RunContext(ctx, func() { items.Put(1, 10) })
	}}
	c := Check{}.Run(context.Background(), inst, core.NativeCnC, RunOpts{})
	if c.BackpressureStalls != 0 || c.PeakLiveBytes <= limit {
		t.Fatalf("stalls %d, peak %d: the run did not exceed its limit stall-free", c.BackpressureStalls, c.PeakLiveBytes)
	}
	if c.Err == nil || !strings.Contains(c.Err.Error(), "64-byte limit") {
		t.Fatalf("Err = %v, want the peak rider", c.Err)
	}
}

// A step that re-puts its own tag and never puts an item keeps retiring
// steps and putting tags forever; the watchdog counts items, so it ends
// the run as stalled, with the instance parked beside it in the dump.
func TestCheckReputLivelockStalls(t *testing.T) {
	inst := graphInstance{run: func(ctx context.Context, tune func(*cnc.Graph)) error {
		g := cnc.NewGraph("reput", 2)
		items := cnc.NewItemCollection[int, int](g, "it")
		tags := cnc.NewTagCollection[int](g, "tg", false)
		step := cnc.NewStepCollection(g, "s", func(i int) error {
			if i == 0 {
				items.Get(42) // parks: nothing ever puts it
			} else if _, ok := items.TryGet(42); !ok {
				tags.Put(i)
			}
			return nil
		})
		tags.Prescribe(step)
		tune(g)
		return g.RunContext(ctx, func() {
			tags.Put(0)
			tags.Put(1)
		})
	}}
	start := time.Now()
	c := Check{Timeout: 30 * time.Second, StallWindow: 200 * time.Millisecond}.Run(context.Background(), inst, core.NonBlockingCnC, RunOpts{})
	if time.Since(start) > 10*time.Second {
		t.Fatal("re-put livelock escaped the watchdog")
	}
	if !c.Stalled || len(c.Blocked) == 0 {
		t.Fatalf("Stalled = %v, Blocked = %v, Err = %v: want a stall with the wait state dumped", c.Stalled, c.Blocked, c.Err)
	}
	if c.DeadlineFired || !errors.Is(c.Err, context.Canceled) {
		t.Fatalf("DeadlineFired = %v, Err = %v: want the watchdog's cancellation", c.DeadlineFired, c.Err)
	}
	if c.StepsDone == 0 || c.ItemsPut != 0 {
		t.Fatalf("steps done %d, items put %d: want busy steps and no data", c.StepsDone, c.ItemsPut)
	}
}

// Detect on a CnC run that builds no graph arms nothing, and a check that
// never ran is not a pass.
func TestCheckDetectVacuous(t *testing.T) {
	inst := graphInstance{run: func(context.Context, func(*cnc.Graph)) error { return nil }}
	c := Check{Detect: true}.Run(context.Background(), inst, core.NativeCnC, RunOpts{})
	if c.Err == nil || !strings.Contains(c.Err.Error(), "vacuous") {
		t.Fatalf("Err = %v, want the run reported vacuous", c.Err)
	}
}

// Wall times the Run call alone: a slow Verify is outside it, and its
// failure wraps ErrVerify.
func TestCheckWallExcludesVerify(t *testing.T) {
	const verify = 300 * time.Millisecond
	inst := graphInstance{
		run: func(context.Context, func(*cnc.Graph)) error { return nil },
		verify: func() error {
			time.Sleep(verify)
			return errors.New("mismatch")
		},
	}
	start := time.Now()
	c := Check{}.Run(context.Background(), inst, core.SerialRDP, RunOpts{})
	if time.Since(start) < verify {
		t.Fatal("Verify did not run")
	}
	if c.Wall >= verify {
		t.Fatalf("Wall = %v includes the %v Verify", c.Wall, verify)
	}
	if !errors.Is(c.Err, ErrVerify) || !strings.Contains(c.Err.Error(), "mismatch") {
		t.Fatalf("Err = %v, want ErrVerify wrapping the mismatch", c.Err)
	}
}

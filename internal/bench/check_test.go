package bench

import (
	"context"
	"errors"
	"runtime"
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

// A livelock that follows real progress: one item is put early, then a step
// re-puts its own tag forever without a get ever parking. Steps keep
// retiring but the item count is frozen, so the watch still ends the run.
func TestCheckCatchesRePutLivelockAfterProgress(t *testing.T) {
	inst := graphInstance{run: func(ctx context.Context, tune func(*cnc.Graph)) error {
		g := cnc.NewGraph("livelock", 4)
		items := cnc.NewItemCollection[int, int](g, "it")
		tags := cnc.NewTagCollection[int](g, "tg", false)
		step := cnc.NewStepCollection(g, "s", func(i int) error {
			if i == 0 {
				items.Put(0, 0)
			} else if _, ok := items.TryGet(99); !ok {
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
	c := Check{Timeout: 30 * time.Second, StallWindow: 150 * time.Millisecond}.Run(context.Background(), inst, core.NonBlockingCnC, RunOpts{})
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("livelock ran %v before the watch caught it", d)
	}
	if !c.Stalled || c.DeadlineFired || !errors.Is(c.Err, context.Canceled) {
		t.Fatalf("Stalled = %v, DeadlineFired = %v, Err = %v: want the watch's cancellation", c.Stalled, c.DeadlineFired, c.Err)
	}
	if c.StepsDone == 0 || c.ItemsPut != 1 {
		t.Fatalf("steps done %d, items put %d: want busy steps after the one early item", c.StepsDone, c.ItemsPut)
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

// stepRun is a one-graph run of step s. Tags other than 0 park on it[99],
// which nothing puts; the run puts them first and waits until they are
// parked, then puts tag 0, whose instance runs body.
func stepRun(body func(ctx context.Context, items *cnc.ItemCollection[int, int]), parked ...int) graphInstance {
	return graphInstance{run: func(ctx context.Context, tune func(*cnc.Graph)) error {
		g := cnc.NewGraph("step", 2)
		items := cnc.NewItemCollection[int, int](g, "it")
		tags := cnc.NewTagCollection[int](g, "tg", false)
		tags.Prescribe(cnc.NewStepCollection(g, "s", func(i int) error {
			if i != 0 {
				items.Get(99)
			} else if body != nil {
				body(ctx, items)
			}
			return nil
		}))
		tune(g)
		return g.RunContext(ctx, func() {
			for _, i := range parked {
				tags.Put(i)
			}
			for len(g.Blocked()) < len(parked) {
				runtime.Gosched()
			}
			if body != nil {
				tags.Put(0)
			}
		})
	}}
}

// hold keeps the calling step's worker until the run is cancelled, so the
// graph cannot quiesce, and returns when it saw the cancellation.
func hold(ctx context.Context) time.Time {
	<-ctx.Done()
	return time.Now()
}

// A frozen progress counter cancels the run within the window (plus
// scheduling slack), and the dump names the parked instance.
func TestCheckStallsOnFrozenProgress(t *testing.T) {
	inst := stepRun(func(ctx context.Context, items *cnc.ItemCollection[int, int]) {
		items.Put(0, 0)
		hold(ctx)
	}, 1)
	start := time.Now()
	c := Check{Timeout: 30 * time.Second, StallWindow: 50 * time.Millisecond}.Run(context.Background(), inst, core.NativeCnC, RunOpts{})
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stall took %v to fire on a frozen counter", d)
	}
	if !c.Stalled || len(c.Blocked) != 1 || c.Blocked[0] != "s@1 <- it[99]" {
		t.Fatalf("Stalled = %v, Blocked = %q: want a stall dumping s@1's wait", c.Stalled, c.Blocked)
	}
	if c.DeadlineFired || !errors.Is(c.Err, context.Canceled) {
		t.Fatalf("DeadlineFired = %v, Err = %v: want the watchdog's cancellation", c.DeadlineFired, c.Err)
	}
}

// A counter that keeps moving never trips the watch, over several windows.
func TestCheckNoStallWhileProgressMoves(t *testing.T) {
	inst := stepRun(func(_ context.Context, items *cnc.ItemCollection[int, int]) {
		for k := 0; k < 60; k++ {
			time.Sleep(5 * time.Millisecond)
			items.Put(k, k)
		}
	})
	c := Check{StallWindow: 60 * time.Millisecond}.Run(context.Background(), inst, core.NativeCnC, RunOpts{})
	if c.Stalled || c.Err != nil {
		t.Fatalf("Stalled = %v, Err = %v: the watch fired on a moving counter", c.Stalled, c.Err)
	}
}

// The window is measured from the last change: progress arriving late in
// the first window pushes the stall a full window past it.
func TestCheckStallWindowAnchorsOnLastChange(t *testing.T) {
	const window = 200 * time.Millisecond
	var bumped, cancelled time.Time
	inst := stepRun(func(ctx context.Context, items *cnc.ItemCollection[int, int]) {
		time.Sleep(window * 3 / 4)
		bumped = time.Now()
		items.Put(0, 0)
		cancelled = hold(ctx)
	})
	c := Check{Timeout: 30 * time.Second, StallWindow: window}.Run(context.Background(), inst, core.NativeCnC, RunOpts{})
	if !c.Stalled {
		t.Fatalf("Err = %v: the watch never fired after progress froze", c.Err)
	}
	if since := cancelled.Sub(bumped); since < window {
		t.Fatalf("fired %v after the last change, want at least the %v window", since, window)
	}
}

// A counter that never leaves zero has no change to anchor on: the window
// runs from arming time, and the stall still fires.
func TestCheckStallsOnZeroProgressFromStart(t *testing.T) {
	inst := stepRun(func(ctx context.Context, _ *cnc.ItemCollection[int, int]) { hold(ctx) })
	c := Check{Timeout: 30 * time.Second, StallWindow: 50 * time.Millisecond}.Run(context.Background(), inst, core.NativeCnC, RunOpts{})
	if !c.Stalled || c.ItemsPut != 0 || c.DeadlineFired {
		t.Fatalf("Stalled = %v, ItemsPut = %d, DeadlineFired = %v: want a stall with no item put", c.Stalled, c.ItemsPut, c.DeadlineFired)
	}
}

// slowBackend keeps every put inside the backend for delay, as a transport
// sitting out a retry backoff would. It buffers nothing, so Flush is a
// no-op.
type slowBackend struct{ delay time.Duration }

func (b slowBackend) Put(string, any, any) (uint32, error) {
	time.Sleep(b.delay)
	return 0, nil
}

func (slowBackend) Free(uint32)  {}
func (slowBackend) Flush() error { return nil }

// A run parked inside its item backend is waiting on the transport, not
// livelocked: the stall is deferred for as long as the put is in flight
// (several windows) and fires one window after it returns.
func TestCheckBusyBackendDefersStall(t *testing.T) {
	const window = 40 * time.Millisecond
	var released, cancelled time.Time
	inst := stepRun(func(ctx context.Context, items *cnc.ItemCollection[int, int]) {
		items.Put(0, 0)
		released = time.Now()
		cancelled = hold(ctx)
	})
	tune := func(g *cnc.Graph) { g.WithItemBackend(slowBackend{delay: 5 * window}) }
	c := Check{Timeout: 30 * time.Second, StallWindow: window}.Run(context.Background(), inst, core.NativeCnC, RunOpts{Tune: tune})
	if !c.Stalled {
		t.Fatalf("Err = %v: the stall never fired after the backend returned", c.Err)
	}
	// The window restarts at the first poll that finds the put returned,
	// so the margin below only absorbs clock reads.
	if since := cancelled.Sub(released); since < window-window/8 {
		t.Fatalf("fired %v after the backend returned, want about the %v window", since, window)
	}
}

// A deadlock quiesces and the runtime reports it itself: the run's error
// is the runtime's DeadlockError, and the watch never fired.
func TestCheckDeadlockIsRuntimeError(t *testing.T) {
	c := Check{StallWindow: 10 * time.Second}.Run(context.Background(), stepRun(nil, 1), core.NativeCnC, RunOpts{})
	var dl *cnc.DeadlockError
	if !errors.As(c.Err, &dl) || !strings.Contains(dl.Blocked[0], "it[99]") {
		t.Fatalf("Err = %v, want the runtime's DeadlockError naming it[99]", c.Err)
	}
	if c.Stalled {
		t.Fatal("the watch fired for a deadlock the runtime reports itself")
	}
}

// watchLoops counts the goroutines the watch started.
func watchLoops() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by dpflow/internal/bench.(*watch).start")
}

// The watch is one goroutine per checked run, and it has exited by the time
// Run returns — after a stall and after a clean run alike.
func TestCheckLeavesNoGoroutine(t *testing.T) {
	for _, stall := range []bool{true, false} {
		var during int
		inst := stepRun(func(ctx context.Context, items *cnc.ItemCollection[int, int]) {
			during = watchLoops()
			if stall {
				hold(ctx)
			}
		})
		c := Check{Timeout: 30 * time.Second, StallWindow: 20 * time.Millisecond}.Run(context.Background(), inst, core.NativeCnC, RunOpts{})
		if c.Stalled != stall {
			t.Fatalf("stall=%v: Stalled = %v, Err = %v", stall, c.Stalled, c.Err)
		}
		if during != 1 {
			t.Fatalf("stall=%v: %d watch goroutines during the run, want 1", stall, during)
		}
		if n := watchLoops(); n != 0 {
			t.Fatalf("stall=%v: %d watch goroutines left after Run returned", stall, n)
		}
	}
}

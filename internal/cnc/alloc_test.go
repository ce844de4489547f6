//go:build !race

package cnc

import (
	"runtime"
	"sync/atomic"
	"testing"

	"dpflow/internal/exec"
)

// These are the dispatch-layer allocation gates: step instances carved from
// slabs and recycled through their collection's free list, a deferred
// instance its own admission record, an attempt's burst kept by its lane and
// read sets held inline in the instance, the hot put→dispatch→execute cycle
// must not allocate in steady state. Tags are ints and dependency keys are small
// ints (< 256), whose interface conversions use the runtime's static boxes —
// the same shapes the real drivers use pointers and pooled envelopes for.
// Every gate warms the free lists first; only the warm cycle is measured.
// The file is excluded from -race builds, like the repo's other allocation
// gates: they measure the uninstrumented runtime.

// TestQueueDispatchSteadyStateAllocs gates the dispatch path end to end:
// put → recycled instance → lane push → parked-worker wakeup → worker
// executes and recycles the instance → worker re-parks. The tuned arm adds
// the pre-scheduling check: the instance resolves its declared read, finds
// it present and is dispatched the same way. The channel handshake
// serialises the cycle so the measurement window contains exactly one full
// round trip.
func TestQueueDispatchSteadyStateAllocs(t *testing.T) {
	for _, tuned := range []bool{false, true} {
		name := "untuned"
		if tuned {
			name = "tuned"
		}
		t.Run(name, func(t *testing.T) {
			g := NewGraph("alloc-queue", 1)
			items := NewItemCollection[int, int](g, "in")
			tags := NewTagCollection[int](g, "tags", false)
			done := make(chan struct{}, 1)
			step := NewStepCollection(g, "noop", func(int) error {
				done <- struct{}{}
				return nil
			})
			if tuned {
				step.WithTunedGetsAppend(func(tag int, buf []Dep) []Dep {
					return append(buf, items.Key(7))
				})
			}
			tags.Prescribe(step)

			cycle := func() {
				tags.Put(1)
				<-done
			}
			var allocs float64
			err := g.Run(func() {
				items.Put(7, 1)
				for i := 0; i < 64; i++ { // warm instance free list, lane rings, parked set
					cycle()
				}
				allocs = testing.AllocsPerRun(100, cycle)
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("steady-state put→worker→execute cycle allocates %v objects per run, want 0", allocs)
			}
		})
	}
}

// TestBurstDispatchSteadyStateAllocs gates the batched path: a step body
// puts a fan of tags through PutInto into its attempt's burst, which the
// runtime flushes onto the attempt's lane as one exec.Lanes.PushTo (one lock
// and one notify), the burst's buffer kept by the lane across attempts.
func TestBurstDispatchSteadyStateAllocs(t *testing.T) {
	const burst = 8
	g := NewGraph("alloc-burst", 1)
	fan := NewTagCollection[int](g, "fan", false)
	tags := NewTagCollection[int](g, "tags", false)
	var pending atomic.Int64
	done := make(chan struct{}, 1)
	fan.Prescribe(NewStepCollectionInto(g, "fan", func(_ int, bu *Burst) error {
		for i := 0; i < burst; i++ {
			tags.PutInto(i, bu)
		}
		return nil
	}))
	tags.Prescribe(NewStepCollection(g, "noop", func(int) error {
		if pending.Add(-1) == 0 {
			done <- struct{}{}
		}
		return nil
	}))

	cycle := func() {
		pending.Store(burst)
		fan.Put(0)
		<-done
	}
	var allocs float64
	err := g.Run(func() {
		for i := 0; i < 32; i++ { // warm the burst buffer, rings, parked set
			cycle()
		}
		allocs = testing.AllocsPerRun(100, cycle)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state attempt burst cycle allocates %v objects per run, want 0", allocs)
	}
}

// TestAbortRequeueCycleAllocs gates the speculative miss path: tag put →
// attempt → the read before the body misses → park the instance →
// item put → requeue → re-execution → completion and release. Each cycle
// uses a fresh key, so it pays for what a miss inherently creates — the
// item's cell, carved from a slab and slotted into the stripe's table, so a
// fraction of an allocation — and nothing else: the wait list is a chain
// through the waiting instance itself, and there is no panic, no label
// string, no closure, no signal object, no boxed key.
func TestAbortRequeueCycleAllocs(t *testing.T) {
	g := NewGraph("alloc-abort", 1)
	in := NewItemCollection[int, int](g, "in")
	in.WithGetCount(func(int) int { return 1 })
	tags := NewTagCollection[int](g, "tags", false)
	done := make(chan struct{}, 1)
	step := NewStepCollection(g, "s", func(i int) error {
		in.Get(i)
		done <- struct{}{}
		return nil
	})
	step.WithGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, in.Key(i)) })
	tags.Prescribe(step)

	next := 1000 // past the runtime's static small-int boxes, should anything box a key
	cycle := func() {
		next++
		tags.Put(next)
		for g.parked() != 1 { // the instance has aborted and parked
			runtime.Gosched()
		}
		in.Put(next, 1)
		<-done
	}
	var allocs float64
	err := g.Run(func() {
		for i := 0; i < 256; i++ { // warm the free list, the table and the first slabs
			cycle()
		}
		allocs = testing.AllocsPerRun(200, cycle)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := g.Stats(); s.Aborts != s.Requeues || s.Aborts != s.StepsDone {
		t.Fatalf("aborts/requeues/done = %d/%d/%d — the gate did not measure the abort cycle", s.Aborts, s.Requeues, s.StepsDone)
	}
	// The cell's slab and table-growth share is well under one allocation
	// and AllocsPerRun truncates it. A wait-list slice, panic record,
	// closure, label or boxed key per abort would make it one.
	if allocs != 0 {
		t.Errorf("abort→park→put→requeue→complete cycle allocates %v objects, want 0", allocs)
	}
}

// TestThrottledDeferredCycleAllocs gates the throttled path under a memory
// limit: a tag put through PutThrottled while its read is missing is
// deferred, waits on the cell, turns runnable when the item is put, is
// admitted by the pump, runs on a worker and is recycled. The instance is
// its own admission record, recycled by its collection, so the cycle
// allocates nothing but its fresh key's share of a cell slab.
func TestThrottledDeferredCycleAllocs(t *testing.T) {
	g := NewGraph("alloc-throttled", 1).WithMemoryLimit(1 << 20)
	in := NewItemCollection[int, int](g, "in")
	in.WithGetCount(func(int) int { return 1 }).WithSizeOf(func(int) int { return 8 })
	tags := NewTagCollection[int](g, "tags", false).WithTagBytes(func(int) int { return 8 })
	done := make(chan struct{}, 1)
	step := NewStepCollection(g, "s", func(int) error {
		done <- struct{}{}
		return nil
	})
	step.WithGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, in.Key(i)) })
	tags.Prescribe(step)

	next := 1000
	cycle := func() {
		next++
		tags.PutThrottled(next) // deferred: its read is missing
		in.Put(next, 1)
		<-done
	}
	var allocs float64
	err := g.Run(func() {
		for i := 0; i < 256; i++ { // warm the free lists, the runnable set and the first slabs
			cycle()
		}
		allocs = testing.AllocsPerRun(200, cycle)
	})
	if err != nil {
		t.Fatal(err)
	}
	cycles := int64(next - 1000)
	if s := g.Stats(); s.BackpressureWaits != cycles || s.BackpressureStalls != 0 || s.StepsDone != uint64(cycles) {
		t.Fatalf("waits/stalls/done = %d/%d/%d over %d cycles — the gate did not measure the deferred cycle",
			s.BackpressureWaits, s.BackpressureStalls, s.StepsDone, cycles)
	}
	if allocs != 0 {
		t.Errorf("deferred throttled put→wait→admit→run→recycle cycle allocates %v objects, want 0", allocs)
	}
	// One instance is live at a time, so the free list hands the same one
	// back every cycle: the collection never carves past its first slab.
	if n := cap(step.slab); n > 4 {
		t.Errorf("the step collection carved a %d-instance slab for one live instance — recycled instances are not reused", n)
	}
}

// TestForcedAdmissionWithoutHookAllocs gates the forced admission: it is a
// count in Stats.BackpressureStalls and takes no wait-state dump, whose
// strings cost one or more allocations per blocked instance (Graph.Blocked
// is the one dump, taken by whoever asks). Many tuned instances wait on missing
// items, so a dump would be long; a throttled tag that can never fit the
// budget is force-admitted once the environment retires. The window runs
// from the environment's last statement to the forced instance's
// BeforeStep hook, and nothing else runs in it.
func TestForcedAdmissionWithoutHookAllocs(t *testing.T) {
	const blocked = 64
	ex := exec.New(1)
	defer ex.Close()
	g := NewGraph("alloc-forced", 1).WithExecutor(ex).WithMemoryLimit(4)
	in := NewItemCollection[int, int](g, "in")
	waitTags := NewTagCollection[int](g, "wait", false)
	waitTags.Prescribe(NewStepCollection(g, "waiter", func(int) error { return nil }).
		WithTunedGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, in.Key(i)) }))
	bigTags := NewTagCollection[int](g, "big", false).WithTagBytes(func(int) int { return 8 })
	bigTags.Prescribe(NewStepCollection(g, "big", func(int) error {
		for i := 0; i < blocked; i++ {
			in.Put(i, i)
		}
		return nil
	}))
	var before, after runtime.MemStats
	g.SetHooks(&Hooks{BeforeStep: func(step string, _ any) error {
		if step == "big" {
			runtime.ReadMemStats(&after)
		}
		return nil
	}})
	err := g.Run(func() {
		for i := 0; i < blocked; i++ {
			waitTags.Put(i) // tuned: waits for in[i] on this goroutine
		}
		bigTags.PutThrottled(0) // 8 bytes never fit the 4-byte budget
		runtime.ReadMemStats(&before)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := g.Stats(); s.BackpressureStalls != 1 || s.StepsDone != blocked+1 {
		t.Fatalf("stalls %d done %d, want 1 forced admission and %d steps", s.BackpressureStalls, s.StepsDone, blocked+1)
	}
	if n := after.Mallocs - before.Mallocs; n >= blocked {
		t.Errorf("a forced admission allocated %d objects with %d instances blocked, want fewer than one per instance", n, blocked)
	}
}

// TestDeferralAllocatesNoRecord gates what deferring a throttled put costs.
// The deferred instance is its own admission record: deferring N of them
// costs their instances' slabs and the growth of the accountant's sorted
// set, a few dozen allocations at N = 4096, and nothing per instance. Every
// tag reads a numbered item not yet put — its read set held inline — so
// every one is deferred on its missing read; the items are put once the
// window closes.
func TestDeferralAllocatesNoRecord(t *testing.T) {
	deferral := func(n int) uint64 {
		g := NewGraph("alloc-deferral", 1).WithMemoryLimit(1 << 40)
		in := NewItemCollection[int, int](g, "in").WithGetCount(func(int) int { return 1 })
		NumberKeys(n, func(k int) int { return k }, func(i int) int { return i }, in)
		tags := NewTagCollection[int](g, "tags", false).WithTagBytes(func(int) int { return 8 })
		tags.Prescribe(NewStepCollection(g, "s", func(int) error { return nil }).
			WithGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, in.Key(i)) }))
		var before, after runtime.MemStats
		err := g.Run(func() {
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				tags.PutThrottled(i)
			}
			runtime.ReadMemStats(&after)
			for i := 0; i < n; i++ {
				in.Put(i, i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if s := g.Stats(); s.BackpressureWaits != int64(n) || s.BackpressureStalls != 0 || s.StepsDone != uint64(n) {
			t.Fatalf("n=%d: waits/stalls/done = %d/%d/%d, want every tag deferred on its read, none forced, all run",
				n, s.BackpressureWaits, s.BackpressureStalls, s.StepsDone)
		}
		return after.Mallocs - before.Mallocs
	}
	const small, large = 64, 4096
	a, b := deferral(small), deferral(large)
	if b > a+large/16 {
		t.Errorf("deferring %d throttled tags allocated %d objects, %d at %d: want growth of at most %d — no record per deferred instance",
			large, b, a, small, large/16)
	}
}

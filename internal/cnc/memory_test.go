package cnc

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGetCountGC runs the Listing 1 pipeline with a get-count of one per
// item (each item is read exactly once by the next step) and checks the
// runtime reclaims everything: zero live items after quiesce, every put
// eventually freed, and a bounded high-water mark.
func TestGetCountGC(t *testing.T) {
	g := NewGraph("gc", 2)
	data := NewItemCollection[int, int](g, "myData")
	ctrl := NewTagCollection[int](g, "myCtrl", false)
	const n = 50
	data.WithGetCount(func(k int) int {
		if k < n {
			return 1 // read by step k
		}
		return 0 // final item has no consumer: freed on put
	}).WithSizeOf(func(int) int { return 8 })
	step := NewStepCollection(g, "myStep", func(i int) error {
		v := data.Get(i)
		data.Put(i+1, v+1)
		if i+1 < n {
			ctrl.Put(i + 1)
		}
		return nil
	})
	step.Consumes(data).Produces(data)
	step.WithGets(func(i int) []Dep { return []Dep{data.Key(i)} })
	ctrl.Prescribe(step)

	if err := g.Run(func() {
		data.Put(0, 0)
		ctrl.Put(0)
	}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.LiveItems != 0 {
		t.Fatalf("LiveItems = %d, want 0", s.LiveItems)
	}
	if s.ItemsFreed != int64(s.ItemsPut) {
		t.Fatalf("ItemsFreed = %d, want %d", s.ItemsFreed, s.ItemsPut)
	}
	if s.PeakLiveItems < 1 || s.PeakLiveItems >= int64(s.ItemsPut) {
		t.Fatalf("PeakLiveItems = %d, want in [1, %d)", s.PeakLiveItems, s.ItemsPut)
	}
	if s.PeakLiveBytes < 8 {
		t.Fatalf("PeakLiveBytes = %d, want >= 8", s.PeakLiveBytes)
	}
	if data.Puts() != s.ItemsPut {
		t.Fatalf("Puts() = %d, want %d", data.Puts(), s.ItemsPut)
	}
	if got := data.Len(); got != 0 {
		t.Fatalf("Len() = %d live items, want 0", got)
	}
	if !g.HasGetCounts() {
		t.Fatal("HasGetCounts() = false, want true")
	}
}

// TestUseAfterFreeGet frees an item via its (too low) get-count, then has a
// later step read it: the read must fail the graph with a deterministic
// UseAfterFreeError, not park forever or return stale data. One worker and
// a tag chain make the ordering deterministic.
func TestUseAfterFreeGet(t *testing.T) {
	g := NewGraph("uaf", 1)
	items := NewItemCollection[string, int](g, "items")
	items.WithGetCount(func(string) int { return 1 })
	firstTags := NewTagCollection[string](g, "first", false)
	secondTags := NewTagCollection[string](g, "second", false)

	first := NewStepCollection(g, "first", func(tag string) error {
		items.Get(tag)
		secondTags.Put(tag)
		return nil
	})
	first.WithGets(func(tag string) []Dep { return []Dep{items.Key(tag)} })
	second := NewStepCollection(g, "second", func(tag string) error {
		items.Get(tag) // the item was freed when first completed
		return nil
	})
	firstTags.Prescribe(first)
	secondTags.Prescribe(second)

	err := g.Run(func() {
		items.Put("x", 1)
		firstTags.Put("x")
	})
	var uaf *UseAfterFreeError
	if !errors.As(err, &uaf) {
		t.Fatalf("err = %v, want UseAfterFreeError", err)
	}
	if uaf.Collection != "items" || uaf.Key != "x" {
		t.Fatalf("UseAfterFreeError = %+v, want items[x]", uaf)
	}
}

// TestTryGetFreed checks the non-blocking read of a freed item also fails
// the graph deterministically instead of reporting "absent".
func TestTryGetFreed(t *testing.T) {
	g := NewGraph("uaf-tryget", 1)
	items := NewItemCollection[string, int](g, "items")
	items.WithGetCount(func(string) int { return 0 }) // freed on put
	tags := NewTagCollection[string](g, "tags", false)
	var sawPresent atomic.Bool
	step := NewStepCollection(g, "poll", func(tag string) error {
		if _, ok := items.TryGet(tag); ok {
			sawPresent.Store(true)
		}
		return nil
	})
	tags.Prescribe(step)

	err := g.Run(func() {
		items.Put("x", 1)
		tags.Put("x")
	})
	var uaf *UseAfterFreeError
	if !errors.As(err, &uaf) {
		t.Fatalf("err = %v, want UseAfterFreeError", err)
	}
	if sawPresent.Load() {
		t.Fatal("TryGet returned ok for a freed item")
	}
	if s := g.Stats(); s.ItemsFreed != 1 || s.LiveItems != 0 {
		t.Fatalf("stats = %+v, want 1 freed / 0 live", s)
	}
}

// TestRePutFreedItem checks that re-putting a key whose item was already
// garbage-collected is reported as a single-assignment violation wrapping
// the use-after-free, not accepted as a fresh item.
func TestRePutFreedItem(t *testing.T) {
	g := NewGraph("reput", 1)
	items := NewItemCollection[string, int](g, "items")
	items.WithGetCount(func(string) int { return 0 })
	tags := NewTagCollection[string](g, "tags", false)
	step := NewStepCollection(g, "step", func(tag string) error {
		items.Put(tag, 2) // "x" was freed the moment the env put it
		return nil
	})
	tags.Prescribe(step)
	err := g.Run(func() {
		items.Put("x", 1)
		tags.Put("x")
	})
	var uaf *UseAfterFreeError
	if !errors.As(err, &uaf) {
		t.Fatalf("err = %v, want UseAfterFreeError", err)
	}
	if !strings.Contains(err.Error(), "single-assignment") {
		t.Fatalf("err = %v, want single-assignment violation", err)
	}
}

// TestOverRelease declares a get-count of one but two reads: the second
// release must report that the declared count was too low.
func TestOverRelease(t *testing.T) {
	g := NewGraph("overrelease", 1)
	items := NewItemCollection[string, int](g, "items")
	items.WithGetCount(func(string) int { return 1 })
	tags := NewTagCollection[string](g, "tags", false)
	step := NewStepCollection(g, "step", func(tag string) error {
		items.Get(tag)
		return nil
	})
	// Two declared reads of the same item against a count of one.
	step.WithGets(func(tag string) []Dep {
		return []Dep{items.Key(tag), items.Key(tag)}
	})
	tags.Prescribe(step)
	err := g.Run(func() {
		items.Put("x", 1)
		tags.Put("x")
	})
	if err == nil || !strings.Contains(err.Error(), "over-release") {
		t.Fatalf("err = %v, want over-release", err)
	}
}

// TestReleaseNeverPut declares a read of an item that never existed. A
// declared read is a required input, so the step never runs: the run
// deadlocks naming the bogus item.
func TestReleaseNeverPut(t *testing.T) {
	g := NewGraph("ghost", 1)
	items := NewItemCollection[string, int](g, "items")
	items.WithGetCount(func(string) int { return 1 })
	tags := NewTagCollection[string](g, "tags", false)
	var runs atomic.Int64
	step := NewStepCollection(g, "step", func(string) error { runs.Add(1); return nil })
	step.WithGets(func(tag string) []Dep { return []Dep{items.Key("ghost")} })
	tags.Prescribe(step)
	err := g.Run(func() { tags.Put("go") })
	var dl *DeadlockError
	if !errors.As(err, &dl) || !slices.Equal(dl.Blocked, []string{"step@go <- items[ghost]"}) {
		t.Fatalf("err = %v, want a DeadlockError naming items[ghost]", err)
	}
	if runs.Load() != 0 {
		t.Fatalf("body ran %d times without its declared input", runs.Load())
	}
}

// TestNegativeGetCount checks a negative declared count fails the graph and
// leaves the item pinned (live) rather than freeing it.
func TestNegativeGetCount(t *testing.T) {
	g := NewGraph("negative", 1)
	items := NewItemCollection[string, int](g, "items")
	items.WithGetCount(func(string) int { return -1 })
	tags := NewTagCollection[string](g, "tags", false)
	step := NewStepCollection(g, "step", func(string) error { return nil })
	tags.Prescribe(step)
	err := g.Run(func() {
		items.Put("x", 1)
		tags.Put("go")
	})
	if err == nil || !strings.Contains(err.Error(), "negative get-count") {
		t.Fatalf("err = %v, want negative get-count error", err)
	}
	if s := g.Stats(); s.LiveItems != 1 || s.ItemsFreed != 0 {
		t.Fatalf("stats = %+v, want the item pinned live", s)
	}
}

// TestRetryNoDoubleDecrement fails a reader's first attempt after its Get
// succeeded; under a retry budget the instance re-executes and completes.
// Releases must land exactly once — at the successful completion — so the
// count neither over-releases (failing attempt released) nor leaks.
func TestRetryNoDoubleDecrement(t *testing.T) {
	g := NewGraph("retry-gc", 1)
	g.SetRetry(1)
	items := NewItemCollection[string, int](g, "items")
	items.WithGetCount(func(string) int { return 1 })
	tags := NewTagCollection[string](g, "tags", false)
	var attempts atomic.Int64
	step := NewStepCollection(g, "flaky", func(tag string) error {
		items.Get(tag)
		if attempts.Add(1) == 1 {
			return errors.New("transient")
		}
		return nil
	})
	step.WithGets(func(tag string) []Dep { return []Dep{items.Key(tag)} })
	tags.Prescribe(step)
	if err := g.Run(func() {
		items.Put("x", 1)
		tags.Put("x")
	}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Retries != 1 || s.ItemsFreed != 1 || s.LiveItems != 0 {
		t.Fatalf("stats = %+v, want 1 retry, 1 freed, 0 live", s)
	}
}

// TestAbortReReadNoDoubleDecrement forces the speculative abort-and-requeue
// path (tag before item) on a get-counted collection: the aborted attempt
// must not release, and the successful re-execution must release exactly
// once.
func TestAbortReReadNoDoubleDecrement(t *testing.T) {
	g := NewGraph("abort-gc", 2)
	items := NewItemCollection[string, int](g, "items")
	items.WithGetCount(func(string) int { return 1 })
	consumerTags := NewTagCollection[string](g, "ct", false)
	producerTags := NewTagCollection[string](g, "pt", false)
	consumer := NewStepCollection(g, "consumer", func(tag string) error {
		items.Get(tag) // aborts on the first execution
		return nil
	})
	consumer.WithGets(func(tag string) []Dep { return []Dep{items.Key(tag)} })
	producer := NewStepCollection(g, "producer", func(tag string) error {
		items.Put(tag, 7)
		return nil
	})
	consumerTags.Prescribe(consumer)
	producerTags.Prescribe(producer)
	if err := g.Run(func() {
		consumerTags.Put("x") // consumer scheduled first, item missing
		producerTags.Put("x")
	}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.ItemsFreed != 1 || s.LiveItems != 0 {
		t.Fatalf("stats = %+v, want 1 freed, 0 live", s)
	}
}

// TestSetRetryNegativeClamped checks a negative budget behaves like zero.
func TestSetRetryNegativeClamped(t *testing.T) {
	g := NewGraph("retry-neg", 1)
	g.SetRetry(-5)
	tags := NewTagCollection[string](g, "tags", false)
	var attempts atomic.Int64
	step := NewStepCollection(g, "fragile", func(string) error {
		attempts.Add(1)
		return errors.New("always fails")
	})
	tags.Prescribe(step)
	if err := g.Run(func() { tags.Put("x") }); err == nil {
		t.Fatal("expected step failure")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
	if s := g.Stats(); s.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", s.Retries)
	}
}

// TestBackpressureBoundsMemory throttles an environment that wants to put
// 64 tags of 8 reserved bytes each under a 32-byte budget. Each step's item
// is freed immediately (get-count 0), so the budget keeps clearing; the run
// must complete with the peak under the limit, at least one wait, and no
// stall.
func TestBackpressureBoundsMemory(t *testing.T) {
	const limit = 32
	g := NewGraph("bounded", 2).WithMemoryLimit(limit)
	out := NewItemCollection[int, int](g, "out")
	out.WithGetCount(func(int) int { return 0 }).WithSizeOf(func(int) int { return 8 })
	tags := NewTagCollection[int](g, "tags", false)
	tags.WithTagBytes(func(int) int { return 8 })
	step := NewStepCollection(g, "work", func(i int) error {
		out.Put(i, i)
		return nil
	})
	step.Produces(out)
	tags.Prescribe(step)
	if err := g.Run(func() {
		for i := 0; i < 64; i++ {
			tags.PutThrottled(i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.PeakLiveBytes > limit {
		t.Fatalf("PeakLiveBytes = %d, want <= %d", s.PeakLiveBytes, limit)
	}
	if s.BackpressureWaits == 0 {
		t.Fatal("BackpressureWaits = 0, want > 0 (64 reservations against a 4-item budget)")
	}
	if s.BackpressureStalls != 0 {
		t.Fatalf("BackpressureStalls = %d, want 0", s.BackpressureStalls)
	}
	if s.ItemsPut != 64 || s.ItemsFreed != 64 || s.LiveItems != 0 {
		t.Fatalf("stats = %+v, want 64 put, 64 freed, 0 live", s)
	}
	if g.MemoryLimit() != limit {
		t.Fatalf("MemoryLimit() = %d, want %d", g.MemoryLimit(), limit)
	}
}

// TestPutRangeThrottled checks a dense tag range put through one burst
// (PutThrottledInto) goes through the same admission control as
// PutThrottled.
func TestPutRangeThrottled(t *testing.T) {
	const limit = 32
	g := NewGraph("bounded-range", 2).WithMemoryLimit(limit)
	out := NewItemCollection[int, int](g, "out")
	out.WithGetCount(func(int) int { return 0 }).WithSizeOf(func(int) int { return 8 })
	tags := NewTagCollection[int](g, "tags", false)
	tags.WithTagBytes(func(int) int { return 8 })
	step := NewStepCollection(g, "work", func(i int) error {
		out.Put(i, i)
		return nil
	})
	step.Produces(out)
	tags.Prescribe(step)
	if err := g.Run(func() {
		putAll(tags, 0, 64)
	}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.PeakLiveBytes > limit || s.BackpressureWaits == 0 || s.BackpressureStalls != 0 {
		t.Fatalf("stats = %+v, want bounded peak, waits > 0, no stall", s)
	}
}

// TestBackpressureStallDegrades gives the graph an infeasible budget: items
// are never freed (no get-count), so deferred puts can never be admitted
// within the limit. Once the graph idles the runtime must degrade — force-
// admit pending puts one at a time, counting each stall — and still
// complete.
func TestBackpressureStallDegrades(t *testing.T) {
	g := NewGraph("stall", 2).WithMemoryLimit(16)
	out := NewItemCollection[int, int](g, "out")
	out.WithSizeOf(func(int) int { return 8 }) // no get-count: never freed
	tags := NewTagCollection[int](g, "tags", false)
	tags.WithTagBytes(func(int) int { return 8 })
	step := NewStepCollection(g, "work", func(i int) error {
		out.Put(i, i)
		return nil
	})
	step.Produces(out)
	tags.Prescribe(step)
	if err := g.Run(func() {
		for i := 0; i < 8; i++ {
			tags.PutThrottled(i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	// The first 8-byte tag is admitted from the empty budget; every later
	// one is a growing put (nothing is ever freed) that must leave one
	// tag of headroom, so only the idle-graph liveness path can admit the
	// remaining seven — one stall each.
	if s.BackpressureStalls != 7 {
		t.Fatalf("BackpressureStalls = %d, want 7", s.BackpressureStalls)
	}
	if s.ItemsPut != 8 || s.LiveItems != 8 {
		t.Fatalf("stats = %+v, want all 8 items put and live (degraded run)", s)
	}
}

// TestBackpressureFlushesOnCancel cancels a graph holding two deferred puts
// — one runnable that can never fit its budget, one still waiting on an item
// that never arrives — while a running step keeps the graph busy (so the
// idle-graph forced admission never applies). The cancellation must flush
// both into drain mode — without the flush their pending holds would keep
// the graph from quiescing.
func TestBackpressureFlushesOnCancel(t *testing.T) {
	g := NewGraph("bp-cancel", 1).WithMemoryLimit(8)
	out := NewItemCollection[int, int](g, "out")
	out.WithSizeOf(func(int) int { return 8 }) // no get-count: never freed
	gate := NewItemCollection[int, bool](g, "gate")
	tags := NewTagCollection[int](g, "tags", false)
	tags.WithTagBytes(func(int) int { return 8 })
	release := make(chan struct{})
	step := NewStepCollection(g, "work", func(i int) error {
		out.Put(i, i)
		<-release // hold the worker so the graph never idles
		return nil
	})
	step.Produces(out)
	step.WithGets(func(i int) []Dep {
		if i == 2 {
			return []Dep{gate.Key(i)}
		}
		return nil
	})
	tags.Prescribe(step)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- g.RunContext(ctx, func() {
			tags.PutThrottled(0) // admitted: fills the 8-byte budget
			tags.PutThrottled(1) // deferred: can never fit
			tags.PutThrottled(2) // deferred: its input is never put
		})
	}()
	time.Sleep(200 * time.Millisecond) // deadline passes while the step holds the graph busy
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled graph did not flush the deferred puts")
	}
	if s := g.Stats(); s.BackpressureWaits != 2 || s.TagsPut != 3 {
		t.Fatalf("waits %d tags put %d, want both deferred puts flushed", s.BackpressureWaits, s.TagsPut)
	} else if s.BackpressureStalls != 0 {
		t.Fatalf("BackpressureStalls = %d, want 0 (cancellation flush, not forced admission)", s.BackpressureStalls)
	}
}

// TestDescribeMemoryContract checks the textual spec and the DOT rendering
// surface the memory declarations.
func TestDescribeMemoryContract(t *testing.T) {
	g := NewGraph("spec", 1).WithMemoryLimit(1 << 20)
	items := NewItemCollection[int, int](g, "cells")
	items.WithGetCount(func(int) int { return 1 }).WithSizeOf(func(int) int { return 8 })
	tags := NewTagCollection[int](g, "ctl", false)
	tags.WithTagBytes(func(int) int { return 8 })
	step := NewStepCollection(g, "work", func(int) error { return nil })
	step.Consumes(items)
	step.WithGets(func(i int) []Dep { return []Dep{items.Key(i)} })
	tags.Prescribe(step)

	desc := g.Describe()
	for _, want := range []string{
		"[cells] : get-count, size-of;",
		"(work) : releases gets on completion;",
		"<ctl> : tag-bytes;",
		"memory limit: 1048576 bytes",
	} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe() missing %q:\n%s", want, desc)
		}
	}
	if dot := g.Dot(); !strings.Contains(dot, "peripheries=2") {
		t.Errorf("Dot() missing double periphery for get-counted items:\n%s", dot)
	}
}

// TestHighWaterHeapBounded validates that the accounted budget translates
// into real process memory: a producer/consumer graph whose items own 1 MiB
// buffers is run once unbounded without get-counts (every buffer stays
// live) and once under a 4 MiB limit with get-count GC (each buffer is
// freed after its single read). The bounded run's sampled heap high-water
// must come in well below the unbounded one.
func TestHighWaterHeapBounded(t *testing.T) {
	const (
		n    = 48
		size = 1 << 20
	)
	run := func(limit int64, withGC bool) uint64 {
		// Drain before reading the baseline: sync.Pool contents filled by
		// earlier tests in the package survive one GC in the victim cache, and
		// garbage they pin is only collected a cycle later — during the run,
		// which would then read low against an inflated baseline.
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		var base runtime.MemStats
		runtime.ReadMemStats(&base)

		g := NewGraph("highwater", 2)
		if limit > 0 {
			g.WithMemoryLimit(limit)
		}
		bufs := NewItemCollection[int, []byte](g, "bufs")
		bufs.WithSizeOf(func(int) int { return size })
		if withGC {
			bufs.WithGetCount(func(int) int { return 1 })
		}
		produce := NewTagCollection[int](g, "produce", false)
		produce.WithTagBytes(func(int) int { return size })
		consume := NewTagCollection[int](g, "consume", false)

		var mu sync.Mutex
		var peak uint64
		sample := func() {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			mu.Lock()
			if m.HeapAlloc > peak {
				peak = m.HeapAlloc
			}
			mu.Unlock()
		}

		prod := NewStepCollection(g, "producer", func(i int) error {
			buf := make([]byte, size)
			buf[0] = byte(i)
			bufs.Put(i, buf)
			consume.Put(i)
			return nil
		})
		prod.Produces(bufs)
		cons := NewStepCollection(g, "consumer", func(i int) error {
			b := bufs.Get(i)
			_ = b[0]
			sample()
			return nil
		})
		if withGC {
			cons.WithGets(func(i int) []Dep { return []Dep{bufs.Key(i)} })
		}
		produce.Prescribe(prod)
		consume.Prescribe(cons)

		if err := g.Run(func() {
			for i := 0; i < n; i++ {
				produce.PutThrottled(i)
			}
		}); err != nil {
			t.Fatal(err)
		}
		sample()
		if s := g.Stats(); limit > 0 {
			if s.LiveItems != 0 {
				t.Fatalf("bounded: LiveItems = %d, want 0", s.LiveItems)
			}
			if s.PeakLiveBytes > limit {
				t.Fatalf("bounded: PeakLiveBytes = %d, want <= %d", s.PeakLiveBytes, limit)
			}
			if s.BackpressureStalls != 0 {
				t.Fatalf("bounded: BackpressureStalls = %d, want 0", s.BackpressureStalls)
			}
		}
		if peak <= base.HeapAlloc {
			return 0
		}
		return peak - base.HeapAlloc
	}

	unbounded := run(0, false)
	bounded := run(4*size, true)
	if unbounded < (n-8)*size {
		t.Fatalf("unbounded high-water %d unexpectedly low; sampling broken?", unbounded)
	}
	if bounded >= unbounded/2 {
		t.Fatalf("bounded high-water %d not meaningfully below unbounded %d", bounded, unbounded)
	}
	t.Logf("heap high-water: unbounded %d bytes, bounded (4 MiB budget) %d bytes", unbounded, bounded)
}

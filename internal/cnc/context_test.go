package cnc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpflow/internal/determinacy"
	"dpflow/internal/exec"
)

// A cancelled RunContext must return ctx.Err() promptly — well under any
// watchdog window — even while the graph keeps generating work, and must
// not leak goroutines.
func TestRunContextCancellation(t *testing.T) {
	exec.Default() // the shared pool is process-lifetime, not a leak
	before := runtime.NumGoroutine()

	g := NewGraph("cancel", 4)
	tags := NewTagCollection[int](g, "tg", false)
	started := make(chan struct{})
	var once sync.Once
	step := NewStepCollection(g, "s", func(i int) error {
		once.Do(func() { close(started) })
		tags.Put(i + 1) // unbounded chain: only cancellation ends the run
		return nil
	})
	tags.Prescribe(step)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- g.RunContext(ctx, func() {
			for i := 0; i < 4; i++ {
				tags.Put(i * 1_000_000)
			}
		})
	}()
	<-started
	start := time.Now()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled RunContext did not return")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt drain", d)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before run, %d after", before, now)
	}
}

// A deadline that expires mid-run surfaces as context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	g := NewGraph("deadline", 2)
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(i int) error {
		tags.Put(i + 1)
		return nil
	})
	tags.Prescribe(step)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := g.RunContext(ctx, func() { tags.Put(0) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// RunContext with an uncancelled context must be indistinguishable from Run.
func TestRunContextCompletes(t *testing.T) {
	g := NewGraph("plain", 4)
	items := NewItemCollection[int, int](g, "it")
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(i int) error {
		items.Put(i, i*i)
		return nil
	})
	tags.Prescribe(step)
	if err := g.RunContext(context.Background(), func() { putAll(tags, 0, 100) }); err != nil {
		t.Fatal(err)
	}
	if items.Len() != 100 {
		t.Fatalf("items = %d, want 100", items.Len())
	}
}

// Cancellation must win over the deadlock report for the instances the
// drain starved.
func TestCancellationBeatsDeadlockReport(t *testing.T) {
	g := NewGraph("cancel-deadlock", 2)
	items := NewItemCollection[int, int](g, "it")
	tags := NewTagCollection[int](g, "tg", false)
	blockedRunning := make(chan struct{})
	var once sync.Once
	step := NewStepCollection(g, "s", func(i int) error {
		if i == 0 {
			once.Do(func() { close(blockedRunning) })
			items.Get(99) // never produced: parks forever
		}
		tags.Put(i + 1)
		return nil
	})
	tags.Prescribe(step)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- g.RunContext(ctx, func() { tags.Put(0); tags.Put(1) })
	}()
	<-blockedRunning
	cancel()
	err := <-errCh
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled to beat the deadlock report", err)
	}
}

// A retry budget absorbs transient failures: a step failing its first attempts
// must be re-executed and the run must complete cleanly.
func TestWithRetryAbsorbsTransientFailures(t *testing.T) {
	g := NewGraph("retry", 4)
	g.SetRetry(2)
	items := NewItemCollection[int, int](g, "it")
	tags := NewTagCollection[int](g, "tg", false)
	var mu sync.Mutex
	attempts := map[int]int{}
	step := NewStepCollection(g, "s", func(i int) error {
		mu.Lock()
		attempts[i]++
		n := attempts[i]
		mu.Unlock()
		if i%3 == 0 && n <= 2 {
			return fmt.Errorf("transient failure %d of tag %d", n, i)
		}
		items.Put(i, i)
		return nil
	})
	tags.Prescribe(step)
	if err := g.Run(func() { putAll(tags, 0, 30) }); err != nil {
		t.Fatalf("retries did not absorb transient failures: %v", err)
	}
	if items.Len() != 30 {
		t.Fatalf("items = %d, want 30", items.Len())
	}
	if got := g.Stats().Retries; got != 20 { // tags 0,3,...,27: two retries each
		t.Fatalf("Stats.Retries = %d, want 20", got)
	}
}

// Cancellation arriving mid-retry must behave like any other cancellation:
// the run returns ctx.Err() promptly, no worker goroutine leaks, and the
// abandoned retries must not have touched the get-count accounting — a
// failed attempt releases nothing, so cancelling between attempts can never
// double-decrement a count or free an item early.
func TestWithRetryCancellationMidRetry(t *testing.T) {
	exec.Default() // the shared pool is process-lifetime, not a leak
	before := runtime.NumGoroutine()

	dc := determinacy.NewDisciplineChecker()
	g := NewGraph("retry-cancel", 4).WithDisciplineCheck(dc)
	g.SetRetry(1 << 30) // budget never exhausts: only cancellation ends the run
	in := NewItemCollection[int, int](g, "in")
	in.WithGetCount(func(int) int { return 1 })
	tags := NewTagCollection[int](g, "tg", false)
	retrying := make(chan struct{})
	var once sync.Once
	var attempts atomic.Int64
	step := NewStepCollection(g, "s", func(i int) error {
		in.Get(0)
		if attempts.Add(1) >= 2 {
			once.Do(func() { close(retrying) }) // first retry is in flight
		}
		return errors.New("failing every attempt")
	})
	step.WithGets(func(i int) []Dep { return []Dep{in.Key(0)} })
	tags.Prescribe(step)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- g.RunContext(ctx, func() {
			in.Put(0, 42)
			tags.Put(0)
		})
	}()
	<-retrying
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled mid-retry run did not return")
	}

	st := g.Stats()
	if st.Retries == 0 {
		t.Fatal("run was cancelled before any retry; the scenario is vacuous")
	}
	// No attempt succeeded, so the declared get must never have been
	// released: the item is still live, nothing freed, and the discipline
	// ledger saw zero releases and no overdraw.
	if st.LiveItems != 1 || st.ItemsFreed != 0 {
		t.Fatalf("LiveItems = %d, ItemsFreed = %d; failed attempts touched the get-count accounting",
			st.LiveItems, st.ItemsFreed)
	}
	if ds := dc.Stats(); ds.Releases != 0 || ds.Violations != 0 {
		t.Fatalf("discipline stats %+v: abandoned retries released or overdrew", ds)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before run, %d after", before, now)
	}
}

// An exhausted retry budget surfaces the last failure.
func TestWithRetryBudgetExhausted(t *testing.T) {
	g := NewGraph("retry-exhausted", 2)
	g.SetRetry(3)
	tags := NewTagCollection[int](g, "tg", false)
	var attempts atomic.Int64
	step := NewStepCollection(g, "s", func(i int) error {
		attempts.Add(1)
		return errors.New("permanent failure")
	})
	tags.Prescribe(step)
	err := g.Run(func() { tags.Put(7) })
	if err == nil || !strings.Contains(err.Error(), "permanent failure") {
		t.Fatalf("err = %v", err)
	}
	if got := attempts.Load(); got != 4 { // 1 initial + 3 retries
		t.Fatalf("attempts = %d, want 4", got)
	}
}

// The Graph.SetRetry budget also absorbs contained panics.
func TestGraphDefaultRetryAbsorbsPanic(t *testing.T) {
	g := NewGraph("retry-default", 2)
	g.SetRetry(1)
	tags := NewTagCollection[int](g, "tg", false)
	var attempts atomic.Int64
	step := NewStepCollection(g, "s", func(i int) error {
		if attempts.Add(1) == 1 {
			panic("one-shot panic")
		}
		return nil
	})
	tags.Prescribe(step)
	if err := g.Run(func() { tags.Put(1) }); err != nil {
		t.Fatalf("default retry did not absorb the panic: %v", err)
	}
	if got := g.Stats().Retries; got != 1 {
		t.Fatalf("Stats.Retries = %d, want 1", got)
	}
}

// Hooks: BeforeStep errors fail the attempt like a body error, DropTag
// starves the consumers into a precise DeadlockError, and BeforeItemPut
// sees every item put.
func TestHooks(t *testing.T) {
	t.Run("BeforeStep", func(t *testing.T) {
		g := NewGraph("hook-step", 2)
		g.SetHooks(&Hooks{BeforeStep: func(step string, tag any) error {
			if tag == 3 {
				return errors.New("hooked failure")
			}
			return nil
		}})
		tags := NewTagCollection[int](g, "tg", false)
		step := NewStepCollection(g, "s", func(int) error { return nil })
		tags.Prescribe(step)
		err := g.Run(func() { putAll(tags, 0, 10) })
		if err == nil || !strings.Contains(err.Error(), "hooked failure") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("DropTag", func(t *testing.T) {
		g := NewGraph("hook-drop", 2)
		g.SetHooks(&Hooks{DropTag: func(coll string, tag any) bool {
			return coll == "pt" && tag == 1
		}})
		items := NewItemCollection[int, int](g, "it")
		prodTags := NewTagCollection[int](g, "pt", false)
		consTags := NewTagCollection[int](g, "ct", false)
		producer := NewStepCollection(g, "p", func(i int) error { items.Put(i, i); return nil })
		consumer := NewStepCollection(g, "c", func(i int) error { items.Get(i); return nil })
		prodTags.Prescribe(producer)
		consTags.Prescribe(consumer)
		err := g.Run(func() { consTags.Put(1); prodTags.Put(1) })
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("err = %v, want DeadlockError from the dropped producer tag", err)
		}
		if len(dl.Blocked) != 1 || !strings.Contains(dl.Blocked[0], "c@1 <- it[1]") {
			t.Fatalf("blocked = %v, want the starved consumer named", dl.Blocked)
		}
	})
	t.Run("BeforeItemPut", func(t *testing.T) {
		g := NewGraph("hook-item", 2)
		var puts atomic.Int64
		g.SetHooks(&Hooks{BeforeItemPut: func(string, any) { puts.Add(1) }})
		items := NewItemCollection[int, int](g, "it")
		tags := NewTagCollection[int](g, "tg", false)
		step := NewStepCollection(g, "s", func(i int) error { items.Put(i, i); return nil })
		tags.Prescribe(step)
		if err := g.Run(func() { putAll(tags, 0, 25) }); err != nil {
			t.Fatal(err)
		}
		if puts.Load() != 25 {
			t.Fatalf("BeforeItemPut saw %d puts, want 25", puts.Load())
		}
	})
}

package forkjoin

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunExecutesRoot(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	ran := false
	p.Run(func(ctx *Ctx) { ran = true })
	if !ran {
		t.Fatal("root task did not run")
	}
}

func TestSpawnWaitCompletesAllChildren(t *testing.T) {
	p := NewPool(Config{Workers: 4})
	defer p.Close()
	var count atomic.Int64
	p.Run(func(ctx *Ctx) {
		var g Group
		for i := 0; i < 100; i++ {
			ctx.Spawn(&g, func(*Ctx) { count.Add(1) })
		}
		ctx.Wait(&g)
		if got := count.Load(); got != 100 {
			t.Errorf("after Wait, %d/100 children done", got)
		}
	})
	if count.Load() != 100 {
		t.Fatalf("executed %d tasks, want 100", count.Load())
	}
}

// fib exercises deeply nested spawn/wait — the same shape as the R-DP
// recursions — and must produce the correct value on any worker count.
func fib(ctx *Ctx, n int) int {
	if n < 2 {
		return n
	}
	var a, b int
	var g Group
	ctx.Spawn(&g, func(c *Ctx) { a = fib(c, n-1) })
	b = fib(ctx, n-2)
	ctx.Wait(&g)
	return a + b
}

func TestNestedForkJoinFib(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(Config{Workers: workers})
		var got int
		p.Run(func(ctx *Ctx) { got = fib(ctx, 16) })
		p.Close()
		if got != 987 {
			t.Fatalf("workers=%d: fib(16) = %d, want 987", workers, got)
		}
	}
}

func TestWaitIsABarrierOverGroupOnly(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	var g1Done, g2Done atomic.Bool
	p.Run(func(ctx *Ctx) {
		var g1, g2 Group
		ctx.Spawn(&g1, func(*Ctx) { g1Done.Store(true) })
		ctx.Spawn(&g2, func(*Ctx) { g2Done.Store(true) })
		ctx.Wait(&g1)
		if !g1Done.Load() {
			t.Error("Wait(g1) returned before g1's child finished")
		}
		ctx.Wait(&g2)
	})
	if !g2Done.Load() {
		t.Fatal("g2 child never ran")
	}
}

func TestGroupReuse(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	var count atomic.Int64
	p.Run(func(ctx *Ctx) {
		var g Group
		for round := 0; round < 5; round++ {
			for i := 0; i < 10; i++ {
				ctx.Spawn(&g, func(*Ctx) { count.Add(1) })
			}
			ctx.Wait(&g)
		}
	})
	if count.Load() != 50 {
		t.Fatalf("executed %d tasks, want 50", count.Load())
	}
}

func TestChildPanicPropagatesAtWait(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate out of Run")
		}
		cpe, ok := r.(*ChildPanicError)
		if !ok {
			t.Fatalf("panic value %T, want *ChildPanicError", r)
		}
		if cpe.Value != "boom" {
			t.Fatalf("ChildPanicError.Value = %v, want the original payload", cpe.Value)
		}
		if !strings.Contains(cpe.Error(), "boom") {
			t.Fatalf("error text %q does not mention cause", cpe.Error())
		}
	}()
	p.Run(func(ctx *Ctx) {
		var g Group
		ctx.Spawn(&g, func(*Ctx) { panic("boom") })
		ctx.Wait(&g)
	})
}

func TestRunOnClosedPoolPanics(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Run(func(*Ctx) {})
}

func TestStatsCounters(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	p.Run(func(ctx *Ctx) {
		var g Group
		for i := 0; i < 20; i++ {
			ctx.Spawn(&g, func(*Ctx) {})
		}
		ctx.Wait(&g)
	})
	s := p.Stats()
	if s.Spawned != 21 { // 20 children + 1 root
		t.Errorf("Spawned = %d, want 21", s.Spawned)
	}
	// The root task is executed outside worker.execute accounting only when
	// run through Run; it is counted too.
	if s.Executed < 20 {
		t.Errorf("Executed = %d, want >= 20", s.Executed)
	}
}

func TestWorkerIDWithinRange(t *testing.T) {
	p := NewPool(Config{Workers: 3})
	defer p.Close()
	var bad atomic.Int64
	p.Run(func(ctx *Ctx) {
		var g Group
		for i := 0; i < 50; i++ {
			ctx.Spawn(&g, func(c *Ctx) {
				if c.WorkerID() < 0 || c.WorkerID() >= 3 {
					bad.Add(1)
				}
				if c.Pool() != p {
					bad.Add(1)
				}
			})
		}
		ctx.Wait(&g)
	})
	if bad.Load() != 0 {
		t.Fatalf("%d tasks saw invalid worker context", bad.Load())
	}
}

// TestVictimSeeds: the steal seed moves the victim order, never the result.
func TestVictimSeeds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := NewPool(Config{Workers: 4, Seed: seed})
		var got int
		p.Run(func(ctx *Ctx) { got = fib(ctx, 14) })
		p.Close()
		if got != 377 {
			t.Fatalf("seed %d: fib(14) = %d, want 377", seed, got)
		}
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	p := NewPool(Config{})
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("Workers = %d", p.Workers())
	}
}

func TestManySequentialRuns(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	for i := 0; i < 30; i++ {
		var done atomic.Bool
		p.Run(func(ctx *Ctx) {
			var g Group
			ctx.Spawn(&g, func(*Ctx) { done.Store(true) })
			ctx.Wait(&g)
		})
		if !done.Load() {
			t.Fatalf("run %d incomplete", i)
		}
	}
}

func BenchmarkSpawnWaitOverhead(b *testing.B) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	b.ResetTimer()
	p.Run(func(ctx *Ctx) {
		var g Group
		for i := 0; i < b.N; i++ {
			ctx.Spawn(&g, func(*Ctx) {})
			ctx.Wait(&g)
		}
	})
}

func BenchmarkFib20(b *testing.B) {
	p := NewPool(Config{Workers: 0})
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(func(ctx *Ctx) { fib(ctx, 20) })
	}
}

// Failure injection: one panicking grandchild deep in a large tree must
// propagate without wedging the pool, and the pool must stay usable.
func TestDeepPanicPropagationAndRecovery(t *testing.T) {
	p := NewPool(Config{Workers: 4})
	defer p.Close()
	var depth func(ctx *Ctx, d int)
	depth = func(ctx *Ctx, d int) {
		if d == 0 {
			panic("deep boom")
		}
		var g Group
		ctx.Spawn(&g, func(c *Ctx) { depth(c, d-1) })
		ctx.Wait(&g)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("expected panic from deep task")
			}
		}()
		p.Run(func(ctx *Ctx) { depth(ctx, 12) })
	}()
	// Pool still works after the panic.
	ok := false
	p.Run(func(ctx *Ctx) { ok = true })
	if !ok {
		t.Fatal("pool unusable after panic")
	}
}

// Stress: a wide, shallow burst of 100k no-op tasks must complete and be
// fully accounted.
func TestWideBurstStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	p := NewPool(Config{Workers: 8})
	defer p.Close()
	var n atomic.Int64
	p.Run(func(ctx *Ctx) {
		var g Group
		for i := 0; i < 100_000; i++ {
			ctx.Spawn(&g, func(*Ctx) { n.Add(1) })
		}
		ctx.Wait(&g)
	})
	if n.Load() != 100_000 {
		t.Fatalf("executed %d", n.Load())
	}
	s := p.Stats()
	if s.Executed < 100_000 {
		t.Fatalf("stats.Executed = %d", s.Executed)
	}
}

// Concurrent Run calls on one Pool fail loudly and deterministically with
// ErrConcurrentRun — a Pool is a single-computation object; concurrent
// jobs take one Pool each and multiplex on the shared executor. Sequential
// reuse of the same Pool keeps working, and callers that want concurrency
// get it from independent pools.
func TestConcurrentRuns(t *testing.T) {
	p := NewPool(Config{Workers: 4})
	defer p.Close()

	// A run that is still in flight makes every overlapping RunContext
	// return ErrConcurrentRun (and Run panic with it).
	rootRunning := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- p.RunContext(context.Background(), func(ctx *Ctx) {
			close(rootRunning)
			<-release
		})
	}()
	<-rootRunning
	if err := p.RunContext(context.Background(), func(*Ctx) {}); !errors.Is(err, ErrConcurrentRun) {
		t.Fatalf("overlapping RunContext returned %v, want ErrConcurrentRun", err)
	}
	func() {
		defer func() {
			if r := recover(); !errors.Is(r.(error), ErrConcurrentRun) {
				t.Errorf("overlapping Run panicked with %v, want ErrConcurrentRun", r)
			}
		}()
		p.Run(func(*Ctx) {})
		t.Error("overlapping Run did not panic")
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first run failed: %v", err)
	}

	// Sequential reuse still works; concurrent jobs use one pool each.
	var total atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := NewPool(Config{Workers: 4})
			defer q.Close()
			q.Run(func(ctx *Ctx) {
				var g Group
				for i := 0; i < 50; i++ {
					ctx.Spawn(&g, func(*Ctx) { total.Add(1) })
				}
				ctx.Wait(&g)
			})
		}()
	}
	wg.Wait()
	if total.Load() != 400 {
		t.Fatalf("total = %d, want 400", total.Load())
	}
	p.Run(func(ctx *Ctx) { total.Add(1) })
	if total.Load() != 401 {
		t.Fatalf("sequential reuse after concurrent error broke: total = %d", total.Load())
	}
}

// Stats are exact as soon as a run is over: a task a Wait has seen complete
// — and the root, once Run returns — counts as executed. (Executed used to
// be bumped after the group was retired, so a reader right behind the run
// could see it one short; dpperf fails an op on that.)
func TestStatsExactAfterRun(t *testing.T) {
	p := NewPool(Config{Workers: 4})
	defer p.Close()
	for i := 0; i < 100000; i++ {
		p.Run(func(c *Ctx) {
			var g Group
			for j := 0; j < 8; j++ {
				c.Spawn(&g, func(*Ctx) {})
			}
			c.Wait(&g)
		})
		if st := p.Stats(); st.Executed != st.Spawned {
			t.Fatalf("run %d: executed %d, spawned %d", i, st.Executed, st.Spawned)
		}
	}
}

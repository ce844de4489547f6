package cnc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// putAll puts the dense tag range lo..hi-1 through PutThrottled, each
// admitted tag enqueued on its own (all of them without a memory limit).
func putAll(tc *TagCollection[int], lo, hi int) {
	for i := lo; i < hi; i++ {
		tc.PutThrottled(i)
	}
}

// TestPipeline builds the Listing 1 graph: one step collection that consumes
// an item, produces the next item and puts the next tag, forming a chain.
func TestPipeline(t *testing.T) {
	g := NewGraph("pipeline", 2)
	data := NewItemCollection[int, int](g, "myData")
	ctrl := NewTagCollection[int](g, "myCtrl", false)
	const n = 50
	step := NewStepCollection(g, "myStep", func(i int) error {
		v := data.Get(i)
		data.Put(i+1, v+1)
		if i+1 < n {
			ctrl.Put(i + 1)
		}
		return nil
	})
	step.Consumes(data)
	step.Produces(data)
	ctrl.Prescribe(step)

	err := g.Run(func() {
		data.Put(0, 0)
		ctrl.Put(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := data.TryGet(n); !ok || v != n {
		t.Fatalf("data[%d] = %v,%v; want %d,true", n, v, ok, n)
	}
}

// TestBlockingGetAbortsAndRequeues puts the consumer's tag before the item
// it needs exists, forcing the authentic abort-and-requeue path. One worker
// makes the order deterministic: the environment's puts are enqueued at the
// oldest end of a single lane and drain in put order, so the consumer
// is guaranteed to run (and miss its Get) before the producer.
func TestBlockingGetAbortsAndRequeues(t *testing.T) {
	g := NewGraph("abort", 1)
	items := NewItemCollection[string, int](g, "items")
	consumed := NewItemCollection[string, int](g, "out")
	consumerTags := NewTagCollection[string](g, "ct", false)
	producerTags := NewTagCollection[string](g, "pt", false)

	consumer := NewStepCollection(g, "consumer", func(tag string) error {
		v := items.Get(tag) // aborts on first execution
		consumed.Put(tag, v*10)
		return nil
	})
	producer := NewStepCollection(g, "producer", func(tag string) error {
		items.Put(tag, 7)
		return nil
	})
	consumerTags.Prescribe(consumer)
	producerTags.Prescribe(producer)

	err := g.Run(func() {
		consumerTags.Put("x") // consumer scheduled first, item missing
		producerTags.Put("x")
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := consumed.TryGet("x"); v != 70 {
		t.Fatalf("consumed = %d, want 70", v)
	}
	s := g.Stats()
	if s.Aborts == 0 || s.Requeues == 0 {
		t.Fatalf("expected abort+requeue, stats %+v", s)
	}
}

func TestSingleAssignmentViolation(t *testing.T) {
	g := NewGraph("dsa", 1)
	items := NewItemCollection[int, int](g, "it")
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "dup", func(int) error {
		items.Put(1, 1)
		items.Put(1, 2)
		return nil
	})
	tags.Prescribe(step)
	err := g.Run(func() { tags.Put(0) })
	if err == nil || !strings.Contains(err.Error(), "single-assignment") {
		t.Fatalf("err = %v, want single-assignment violation", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	g := NewGraph("dl", 2)
	items := NewItemCollection[int, string](g, "never")
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "blocked", func(tag int) error {
		items.Get(42) // never put
		return nil
	})
	tags.Prescribe(step)
	err := g.Run(func() { tags.Put(1) })
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || !strings.Contains(dl.Blocked[0], "never[42]") {
		t.Fatalf("blocked report = %v", dl.Blocked)
	}
	if !strings.Contains(dl.Error(), "blocked@1") {
		t.Fatalf("error text %q should identify the blocked instance", dl.Error())
	}
}

func TestTagMemoization(t *testing.T) {
	g := NewGraph("memo", 2)
	var runs atomic.Int64
	tags := NewTagCollection[int](g, "tg", true)
	step := NewStepCollection(g, "s", func(int) error {
		runs.Add(1)
		return nil
	})
	tags.Prescribe(step)
	err := g.Run(func() {
		for i := 0; i < 10; i++ {
			tags.Put(5)
		}
		tags.Put(6)
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("step ran %d times, want 2 (memoized)", runs.Load())
	}
}

func TestUnmemoizedTagsRunPerPut(t *testing.T) {
	g := NewGraph("nomemo", 2)
	var runs atomic.Int64
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(int) error {
		runs.Add(1)
		return nil
	})
	tags.Prescribe(step)
	if err := g.Run(func() {
		tags.Put(5)
		tags.Put(5)
	}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("step ran %d times, want 2", runs.Load())
	}
}

// TestPrescheduledDelayed: with the dependency missing at prescription time,
// the tuned step is released when the item arrives, still without aborts.
func TestPrescheduledDelayed(t *testing.T) {
	g := NewGraph("tuner2", 2)
	in := NewItemCollection[int, int](g, "in")
	out := NewItemCollection[int, int](g, "out")
	stepTags := NewTagCollection[int](g, "tg", false)
	prodTags := NewTagCollection[int](g, "pt", false)
	step := NewStepCollection(g, "s", func(i int) error {
		out.Put(i, in.Get(i)+1)
		return nil
	}).WithTunedGetsAppend(func(i int, ds []Dep) []Dep {
		return append(ds, in.Key(i))
	})
	prod := NewStepCollection(g, "p", func(i int) error {
		in.Put(i, 10)
		return nil
	})
	stepTags.Prescribe(step)
	prodTags.Prescribe(prod)
	err := g.Run(func() {
		stepTags.Put(1) // dep missing: parked on countdown
		prodTags.Put(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out.TryGet(1); v != 11 {
		t.Fatalf("out = %d, want 11", v)
	}
	s := g.Stats()
	if s.Aborts != 0 {
		t.Fatalf("tuned step aborted, stats %+v", s)
	}
	if s.TriggeredRuns != 1 {
		t.Fatalf("TriggeredRuns = %d, want 1", s.TriggeredRuns)
	}
}

// TestReadyTunedInstanceDispatched: a tuned instance whose declared read is
// already present when its tag is put is dispatched to a worker like any
// ready instance, never run inline on the putting goroutine, and never
// aborts.
func TestReadyTunedInstanceDispatched(t *testing.T) {
	g := NewGraph("tuner", 2)
	in := NewItemCollection[int, int](g, "in")
	out := NewItemCollection[int, int](g, "out")
	tags := NewTagCollection[int](g, "tg", false)
	var ranOn atomic.Uint64
	step := NewStepCollection(g, "s", func(i int) error {
		ranOn.Store(goid())
		out.Put(i, in.Get(i)*2)
		return nil
	}).WithTunedGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, in.Key(i)) })
	tags.Prescribe(step)
	var envOn uint64
	err := g.Run(func() {
		envOn = goid()
		in.Put(3, 21)
		tags.Put(3) // the read is present: dispatched at once
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out.TryGet(3); v != 42 {
		t.Fatalf("out = %d, want 42", v)
	}
	if ranOn.Load() == envOn {
		t.Fatal("the tuned step ran on the goroutine that put its tag")
	}
	s := g.Stats()
	if s.Aborts != 0 || s.InlineRuns != 0 || s.TriggeredRuns != 1 {
		t.Fatalf("stats %+v: want 0 aborts, 0 inline, 1 triggered", s)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	var b [64]byte
	f := bytes.Fields(b[:runtime.Stack(b[:], false)])
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// TestTunedDeadlock: a tuned step whose dependency never arrives must be
// reported as a deadlock, not hang.
func TestTunedDeadlock(t *testing.T) {
	g := NewGraph("tdl", 1)
	in := NewItemCollection[int, int](g, "input")
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(i int) error {
		in.Get(i)
		return nil
	}).WithTunedGetsAppend(func(i int, ds []Dep) []Dep { return append(ds, in.Key(i)) })
	tags.Prescribe(step)
	err := g.Run(func() { tags.Put(7) })
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || !strings.Contains(dl.Blocked[0], "input[7]") {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

func TestStepErrorFailsGraph(t *testing.T) {
	g := NewGraph("err", 1)
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(int) error { return errors.New("kaput") })
	tags.Prescribe(step)
	err := g.Run(func() { tags.Put(1) })
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v", err)
	}
}

func TestStepPanicFailsGraph(t *testing.T) {
	g := NewGraph("panic", 1)
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(int) error { panic("oh no") })
	tags.Prescribe(step)
	err := g.Run(func() { tags.Put(1) })
	if err == nil || !strings.Contains(err.Error(), "oh no") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunTwiceErrors(t *testing.T) {
	g := NewGraph("twice", 1)
	if err := g.Run(nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(nil); err == nil {
		t.Fatal("second Run should error")
	}
}

func TestPutOutsideRunPanics(t *testing.T) {
	g := NewGraph("outside", 1)
	items := NewItemCollection[int, int](g, "it")
	defer func() {
		if r := recover(); r != ErrNotRunning {
			t.Fatalf("recover = %v, want ErrNotRunning", r)
		}
	}()
	items.Put(1, 1)
}

// TestWavefrontDeterminism runs a 2-D wavefront (the SW dependency pattern)
// under several worker counts and requires bit-identical results — the
// determinism property CnC guarantees for deterministic steps.
func TestWavefrontDeterminism(t *testing.T) {
	const n = 12
	run := func(workers int) []int64 {
		g := NewGraph("wave", workers)
		cell := NewItemCollection[[2]int, int64](g, "cell")
		tags := NewTagCollection[[2]int](g, "tg", true)
		step := NewStepCollection(g, "w", func(t [2]int) error {
			i, j := t[0], t[1]
			up := cell.Get([2]int{i - 1, j})
			left := cell.Get([2]int{i, j - 1})
			diag := cell.Get([2]int{i - 1, j - 1})
			cell.Put([2]int{i, j}, up+left+2*diag+int64(i*j))
			if i+1 < n {
				tags.Put([2]int{i + 1, j})
			}
			if j+1 < n {
				tags.Put([2]int{i, j + 1})
			}
			return nil
		})
		tags.Prescribe(step)
		err := g.Run(func() {
			cell.Put([2]int{0, 0}, 0)
			for i := 1; i < n; i++ {
				cell.Put([2]int{i, 0}, int64(i))
				cell.Put([2]int{0, i}, int64(i))
			}
			tags.Put([2]int{1, 1})
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, 0, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v, ok := cell.TryGet([2]int{i, j})
				if !ok {
					t.Fatalf("workers=%d: cell (%d,%d) missing", workers, i, j)
				}
				out = append(out, v)
			}
		}
		return out
	}
	ref := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: cell %d = %d, want %d", w, i, got[i], ref[i])
			}
		}
	}
}

// TestFibonacci exercises recursive tag expansion with memoization — the
// control-flow shape of the paper's recursive CnC programs in miniature.
func TestFibonacci(t *testing.T) {
	g := NewGraph("fib", 4)
	fib := NewItemCollection[int, uint64](g, "fib")
	tags := NewTagCollection[int](g, "tg", true)
	step := NewStepCollection(g, "f", func(n int) error {
		if n < 2 {
			fib.Put(n, uint64(n))
			return nil
		}
		// Expand children first so they exist; gets may abort and retry.
		tags.Put(n - 1)
		tags.Put(n - 2)
		a := fib.Get(n - 1)
		b := fib.Get(n - 2)
		fib.Put(n, a+b)
		return nil
	})
	tags.Prescribe(step)
	if err := g.Run(func() { tags.Put(30) }); err != nil {
		t.Fatal(err)
	}
	if v, _ := fib.TryGet(30); v != 832040 {
		t.Fatalf("fib(30) = %d, want 832040", v)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := NewGraph("stats", 2)
	items := NewItemCollection[int, int](g, "it")
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(i int) error {
		items.Put(i, i)
		return nil
	})
	tags.Prescribe(step)
	if err := g.Run(func() {
		for i := 0; i < 10; i++ {
			tags.Put(i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.TagsPut != 10 || s.ItemsPut != 10 || s.StepsDone != 10 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDescribeAndDot(t *testing.T) {
	g := NewGraph("GE", 1)
	data := NewItemCollection[int, bool](g, "myData")
	ctrl := NewTagCollection[int](g, "myCtrl", false)
	step := NewStepCollection(g, "myStep", func(int) error { return nil })
	step.Consumes(data).Produces(data)
	ctrl.Prescribe(step)

	desc := g.Describe()
	for _, want := range []string{"<myCtrl> :: (myStep);", "[myData] --> (myStep);", "(myStep) --> [myData];"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
	dot := g.Dot()
	for _, want := range []string{"shape=hexagon", "shape=box", "shape=oval", "digraph \"GE\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot missing %q:\n%s", want, dot)
		}
	}
}

func TestDepString(t *testing.T) {
	g := NewGraph("d", 1)
	items := NewItemCollection[int, int](g, "tbl")
	d := items.Key(5)
	if d.String() != "tbl[5]" {
		t.Fatalf("Dep.String = %q", d.String())
	}
}

func TestMultiplePrescriptions(t *testing.T) {
	g := NewGraph("multi", 2)
	var a, b atomic.Int64
	tags := NewTagCollection[int](g, "tg", false)
	sa := NewStepCollection(g, "a", func(int) error { a.Add(1); return nil })
	sb := NewStepCollection(g, "b", func(int) error { b.Add(1); return nil })
	tags.Prescribe(sa)
	tags.Prescribe(sb)
	if err := g.Run(func() { tags.Put(0) }); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 1 || b.Load() != 1 {
		t.Fatalf("a=%d b=%d, want 1,1", a.Load(), b.Load())
	}
}

// A step with several missing tuned dependencies must fire exactly once,
// after the last one arrives.
func TestMultiDepCountdown(t *testing.T) {
	g := NewGraph("latch", 2)
	in := NewItemCollection[int, int](g, "in")
	out := NewItemCollection[int, int](g, "out")
	stepTags := NewTagCollection[int](g, "st", false)
	feedTags := NewTagCollection[int](g, "ft", false)
	var runs atomic.Int64
	step := NewStepCollection(g, "sum", func(int) error {
		runs.Add(1)
		out.Put(0, in.Get(1)+in.Get(2)+in.Get(3))
		return nil
	}).WithTunedGetsAppend(func(_ int, ds []Dep) []Dep {
		return append(ds, in.Key(1), in.Key(2), in.Key(3))
	})
	feed := NewStepCollection(g, "feed", func(i int) error {
		in.Put(i, i*100)
		return nil
	})
	stepTags.Prescribe(step)
	feedTags.Prescribe(feed)
	if err := g.Run(func() {
		stepTags.Put(0)
		for i := 1; i <= 3; i++ {
			feedTags.Put(i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("step ran %d times, want exactly 1", runs.Load())
	}
	if v, _ := out.TryGet(0); v != 600 {
		t.Fatalf("out = %d, want 600", v)
	}
}

func TestItemLenAndName(t *testing.T) {
	g := NewGraph("len", 1)
	items := NewItemCollection[int, int](g, "xs")
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(i int) error { items.Put(i, i); return nil })
	tags.Prescribe(step)
	if err := g.Run(func() { tags.Put(1); tags.Put(2) }); err != nil {
		t.Fatal(err)
	}
	if items.Len() != 2 {
		t.Fatalf("Len = %d", items.Len())
	}
	if items.CollectionName() != "xs" || tags.CollectionName() != "tg" || step.CollectionName() != "s" {
		t.Fatal("collection names wrong")
	}
	if g.Name() != "len" || g.Workers() != 1 {
		t.Fatal("graph metadata wrong")
	}
}

func ExampleGraph() {
	g := NewGraph("hello", 1)
	data := NewItemCollection[int, string](g, "myData")
	ctrl := NewTagCollection[int](g, "myCtrl", false)
	step := NewStepCollection(g, "myStep", func(i int) error {
		data.Put(i+1, data.Get(i)+"!")
		return nil
	})
	ctrl.Prescribe(step)
	_ = g.Run(func() {
		data.Put(0, "hello")
		ctrl.Put(0)
	})
	v, _ := data.TryGet(1)
	fmt.Println(v)
	// Output: hello!
}

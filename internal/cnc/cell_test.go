package cnc

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dpflow/internal/determinacy"
)

// awaitParked blocks until the graph holds exactly `parked` waiting
// instances and nothing else is queued or executing (the environment itself
// is the one outstanding unit) — the quiet state between two puts of the
// abort tests below. It must be called from the environment function.
func awaitParked(t *testing.T, g *Graph, parked int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.outstanding.Load() != 1 || g.parked() != parked {
		if time.Now().After(deadline) {
			t.Fatalf("graph never settled: outstanding %d, parked %d, want 1 and %d; blocked %v",
				g.outstanding.Load(), g.parked(), parked, g.Blocked())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// abortGraph builds one Native step reading in[1..k] in key order, with or
// without its read set declared.
func abortGraph(k int, declare bool) (*Graph, *ItemCollection[int, int], *TagCollection[int], *atomic.Int64) {
	g := NewGraph("abort-once", 2)
	in := NewItemCollection[int, int](g, "in")
	tags := NewTagCollection[int](g, "t", false)
	sum := new(atomic.Int64)
	step := NewStepCollection(g, "s", func(int) error {
		n := 0
		for i := 1; i <= k; i++ {
			n += in.Get(i)
		}
		sum.Store(int64(n))
		return nil
	})
	if declare {
		in.WithGetCount(func(int) int { return 1 })
		step.WithGetsAppend(func(_ int, ds []Dep) []Dep {
			for i := 1; i <= k; i++ {
				ds = append(ds, in.Key(i))
			}
			return ds
		})
	}
	tags.Prescribe(step)
	return g, in, tags, sum
}

// TestAbortOnceWithDeclaredGets is the abort-once contract: the items of a
// Native step with k declared gets arrive one at a time, in the order the
// body reads them, each only once the instance is parked again — the
// schedule on which parking on the one missed item aborts k times. With the
// read set declared the instance executes exactly twice, lists every
// still-missing item while parked, and releases its read set once.
func TestAbortOnceWithDeclaredGets(t *testing.T) {
	const k = 4
	g, in, tags, sum := abortGraph(k, true)
	var blocked [][]string
	err := g.Run(func() {
		tags.Put(0)
		for i := 1; i <= k; i++ {
			awaitParked(t, g, 1)
			blocked = append(blocked, g.Blocked())
			in.Put(i, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != k*(k+1)/2 {
		t.Fatalf("sum = %d, the re-execution read wrong values", sum.Load())
	}
	s := g.Stats()
	if s.Aborts != 1 || s.Requeues != 1 || s.StepsStarted != 2 || s.StepsDone != 1 {
		t.Fatalf("aborts/requeues/started/done = %d/%d/%d/%d, want 1/1/2/1",
			s.Aborts, s.Requeues, s.StepsStarted, s.StepsDone)
	}
	if s.ItemsFreed != k || s.LiveItems != 0 || in.Len() != 0 || in.Puts() != k {
		t.Fatalf("freed %d live %d Len %d Puts %d, want the read set released exactly once",
			s.ItemsFreed, s.LiveItems, in.Len(), in.Puts())
	}
	want := []string{"s@0 <- in[1]", "s@0 <- in[2]", "s@0 <- in[3]", "s@0 <- in[4]"}
	for i, got := range blocked {
		if !reflect.DeepEqual(got, want[i:]) {
			t.Errorf("Blocked() before put %d = %v, want %v", i+1, got, want[i:])
		}
	}
}

// TestReadsArrivingLastFirst runs the abort-once schedule backwards: the
// items arrive last read first, so the instance stays chained on its first
// read while the later ones are put, and the one wake continues along reads
// that are all present. It still aborts once and starts twice, and Blocked
// lists exactly the items still missing — the later ones probed, not
// chained on — before each put.
func TestReadsArrivingLastFirst(t *testing.T) {
	const k = 4
	g, in, tags, sum := abortGraph(k, true)
	var blocked [][]string
	err := g.Run(func() {
		tags.Put(0)
		for i := k; i >= 1; i-- {
			awaitParked(t, g, 1)
			blocked = append(blocked, g.Blocked())
			in.Put(i, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Aborts != 1 || s.Requeues != 1 || s.StepsStarted != 2 || s.StepsDone != 1 {
		t.Fatalf("aborts/requeues/started/done = %d/%d/%d/%d, want 1/1/2/1",
			s.Aborts, s.Requeues, s.StepsStarted, s.StepsDone)
	}
	if sum.Load() != k*(k+1)/2 || s.LiveItems != 0 {
		t.Fatalf("sum %d live %d, want %d and 0", sum.Load(), s.LiveItems, k*(k+1)/2)
	}
	want := []string{"s@0 <- in[1]", "s@0 <- in[2]", "s@0 <- in[3]", "s@0 <- in[4]"}
	for i, got := range blocked {
		if !reflect.DeepEqual(got, want[:k-i]) {
			t.Errorf("Blocked() before put %d = %v, want %v", i+1, got, want[:k-i])
		}
	}
}

// TestAbortPerItemWithoutDeclaration pins the undeclared behaviour on the
// same schedule: with no read set to wait for, the instance parks on the
// item that missed and so re-aborts at each later one — and still completes.
func TestAbortPerItemWithoutDeclaration(t *testing.T) {
	const k = 4
	g, in, tags, sum := abortGraph(k, false)
	err := g.Run(func() {
		tags.Put(0)
		for i := 1; i <= k; i++ {
			awaitParked(t, g, 1)
			if got, want := g.Blocked(), []string{"s@0 <- " + in.Key(i).String()}; !reflect.DeepEqual(got, want) {
				t.Errorf("Blocked() before put %d = %v, want %v", i, got, want)
			}
			in.Put(i, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Aborts != k || s.Requeues != k || s.StepsStarted != k+1 || s.StepsDone != 1 {
		t.Fatalf("aborts/requeues/started/done = %d/%d/%d/%d, want %d/%d/%d/1",
			s.Aborts, s.Requeues, s.StepsStarted, s.StepsDone, k, k, k+1)
	}
	if sum.Load() != k*(k+1)/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

// TestAbortParksOnUndeclaredMiss: a declaration that omits the item that
// missed must not requeue the instance into a livelock — it also waits for
// the missed item.
func TestAbortParksOnUndeclaredMiss(t *testing.T) {
	g := NewGraph("abort-undeclared", 2)
	in := NewItemCollection[int, int](g, "in")
	tags := NewTagCollection[int](g, "t", false)
	step := NewStepCollection(g, "s", func(int) error {
		in.Get(1)
		in.Get(2)
		return nil
	})
	step.WithGets(func(int) []Dep { return []Dep{in.Key(1)} }) // in[2] is read but not declared
	tags.Prescribe(step)
	err := g.Run(func() {
		in.Put(1, 1)
		tags.Put(0)
		awaitParked(t, g, 1)
		if got, want := g.Blocked(), []string{"s@0 <- in[2]"}; !reflect.DeepEqual(got, want) {
			t.Errorf("Blocked() = %v, want %v", got, want)
		}
		in.Put(2, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := g.Stats(); s.Aborts != 1 || s.Requeues != 1 || s.StepsDone != 1 {
		t.Fatalf("aborts/requeues/done = %d/%d/%d, want 1/1/1", s.Aborts, s.Requeues, s.StepsDone)
	}
}

// TestDeadlockListsEveryMissingDependency: a parked multi-get instance whose
// inputs never arrive is reported with one line per missing item.
func TestDeadlockListsEveryMissingDependency(t *testing.T) {
	g, in, tags, _ := abortGraph(3, true)
	err := g.Run(func() {
		tags.Put(7)
		in.Put(2, 2)
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if want := []string{"s@7 <- in[1]", "s@7 <- in[3]"}; !reflect.DeepEqual(dl.Blocked, want) {
		t.Fatalf("Blocked = %v, want %v", dl.Blocked, want)
	}
}

// putOnSubscribe is an item cell that puts its own item just before a
// waiter subscribes to it: the put lands after the read that found the
// item missing and before the subscribe.
type putOnSubscribe struct {
	*cell[int, int]
	put func()
}

func (p putOnSubscribe) subscribe(w waiter) bool {
	p.put()
	return p.cell.subscribe(w)
}

// TestItemArrivingBeforeSubscribeIsNotLost closes the window between the
// read before the body and the subscribe deterministically: the declared
// cell puts its missing item itself as the aborted instance subscribes. The
// subscribe must see the item present and requeue at once instead of
// parking forever.
func TestItemArrivingBeforeSubscribeIsNotLost(t *testing.T) {
	g := NewGraph("abort-window", 1)
	in := NewItemCollection[int, int](g, "in")
	tags := NewTagCollection[int](g, "t", false)
	var runs atomic.Int64
	step := NewStepCollection(g, "s", func(int) error {
		runs.Add(1)
		in.Get(1)
		return nil
	})
	step.WithGetsAppend(func(_ int, ds []Dep) []Dep {
		c := in.Key(1).c.(*cell[int, int])
		return append(ds, Dep{putOnSubscribe{c, func() { in.Put(1, 1) }}})
	})
	tags.Prescribe(step)
	if err := g.Run(func() { tags.Put(0) }); err != nil {
		t.Fatal(err)
	}
	if s := g.Stats(); runs.Load() != 1 || s.Aborts != 1 || s.Requeues != 1 || s.StepsStarted != 2 || s.StepsDone != 1 {
		t.Fatalf("runs/aborts/requeues/started/done = %d/%d/%d/%d/%d, want 1/1/1/2/1",
			runs.Load(), s.Aborts, s.Requeues, s.StepsStarted, s.StepsDone)
	}
}

// TestDeclaredReadsCheckedBeforeBody: a Native step's declared read is
// checked by the runtime before the body runs, so when the item arrives only
// later the attempt aborts without entering the body — no panic unwind, no
// wasted body — and the body runs exactly once, after the requeue.
func TestDeclaredReadsCheckedBeforeBody(t *testing.T) {
	g := NewGraph("read-first", 2)
	in := NewItemCollection[int, int](g, "in").WithGetCount(func(int) int { return 1 })
	tags := NewTagCollection[int](g, "t", false)
	var entries atomic.Int64
	step := NewStepCollection(g, "s", func(i int) error {
		entries.Add(1)
		in.Get(i)
		return nil
	}).WithGets(func(i int) []Dep { return []Dep{in.Key(i)} })
	tags.Prescribe(step)
	err := g.Run(func() {
		tags.Put(0)
		awaitParked(t, g, 1)
		in.Put(0, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if entries.Load() != 1 {
		t.Fatalf("body entered %d times, want 1", entries.Load())
	}
	if s.Aborts != 1 || s.Requeues != 1 || s.StepsStarted != 2 || s.StepsDone != 1 || s.LiveItems != 0 {
		t.Fatalf("aborts/requeues/started/done/live = %d/%d/%d/%d/%d, want 1/1/2/1/0",
			s.Aborts, s.Requeues, s.StepsStarted, s.StepsDone, s.LiveItems)
	}
}

// TestReadSetResolvedOnce counts the read-set callback: an instance resolves
// its declared reads to cells once, then reads, waits on and releases them
// through those cells — a Native instance that aborts and then completes, a
// Manual instance whose tuned dependencies are the same declaration (as
// gep.Flow declares them), and a Tuner instance of a throttled put, which
// waits for the same cells before its admission.
func TestReadSetResolvedOnce(t *testing.T) {
	for _, name := range []string{"native", "manual", "tuner-throttled"} {
		t.Run(name, func(t *testing.T) {
			g := NewGraph("resolve-once", 2)
			in := NewItemCollection[int, int](g, "in").WithGetCount(func(int) int { return 1 })
			tags := NewTagCollection[int](g, "t", false)
			step := NewStepCollection(g, "s", func(i int) error { in.Get(i); return nil })
			var calls atomic.Int64
			reads := func(i int, ds []Dep) []Dep {
				calls.Add(1)
				return append(ds, in.Key(i))
			}
			if name == "native" {
				step.WithGetsAppend(reads)
			} else {
				step.WithTunedGetsAppend(reads)
			}
			if name == "tuner-throttled" {
				g.WithMemoryLimit(1 << 20)
				tags.WithTagBytes(func(int) int { return 8 })
			}
			tags.Prescribe(step)
			err := g.Run(func() {
				// Put, without a memory limit. A deferred instance is not
				// parked, so only the other two settle into one.
				tags.PutThrottled(0)
				if name != "tuner-throttled" {
					awaitParked(t, g, 1)
				}
				in.Put(0, 1)
			})
			if err != nil {
				t.Fatal(err)
			}
			s := g.Stats()
			if calls.Load() != 1 || s.StepsDone != 1 || s.LiveItems != 0 {
				t.Fatalf("read-set callback called %d times (done %d, live %d), want once", calls.Load(), s.StepsDone, s.LiveItems)
			}
			var path bool
			switch name {
			case "native":
				path = s.Aborts == 1
			case "manual":
				path = s.Aborts == 0 && s.TriggeredRuns == 1
			default:
				path = s.Aborts == 0 && s.TriggeredRuns == 1 && s.BackpressureWaits == 1
			}
			if !path {
				t.Fatalf("aborts %d triggered %d waits %d, want the %s path",
					s.Aborts, s.TriggeredRuns, s.BackpressureWaits, name)
			}
		})
	}
}

// TestAbortRequeueStress races aborting consumers against the producers of
// their inputs on several workers (run it under -race): every consumer must
// complete, abort at most once, and be requeued exactly as often as it
// aborted, with nothing left parked and every item freed.
func TestAbortRequeueStress(t *testing.T) {
	const (
		n     = 2000
		reads = 3
	)
	g := NewGraph("abort-stress", 4)
	in := NewItemCollection[int, int](g, "in")
	in.WithGetCount(func(k int) int { return min(k+1, reads, n+reads-1-k) })
	consume := NewTagCollection[int](g, "consume", false)
	produce := NewTagCollection[int](g, "produce", false)
	var sum atomic.Int64
	cons := NewStepCollection(g, "c", func(i int) error {
		s := 0
		for j := 0; j < reads; j++ {
			s += in.Get(i + j)
		}
		sum.Add(int64(s))
		return nil
	})
	cons.WithGetsAppend(func(i int, ds []Dep) []Dep {
		for j := 0; j < reads; j++ {
			ds = append(ds, in.Key(i+j))
		}
		return ds
	})
	prod := NewStepCollection(g, "p", func(i int) error {
		in.Put(i, 1)
		return nil
	})
	consume.Prescribe(cons)
	produce.Prescribe(prod)
	err := g.Run(func() {
		for i := 0; i < n; i++ {
			consume.Put(i)
			produce.Put(i)
		}
		for i := n; i < n+reads-1; i++ {
			produce.Put(i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if sum.Load() != n*reads || s.StepsDone != 2*n+reads-1 {
		t.Fatalf("sum %d done %d, want %d and %d", sum.Load(), s.StepsDone, n*reads, 2*n+reads-1)
	}
	if s.Aborts > n || s.Aborts != s.Requeues {
		t.Fatalf("aborts %d requeues %d, want equal and at most one per consumer (%d)", s.Aborts, s.Requeues, n)
	}
	if s.LiveItems != 0 || in.Len() != 0 || len(g.Blocked()) != 0 {
		t.Fatalf("live %d Len %d blocked %v, want all freed and nothing parked", s.LiveItems, in.Len(), g.Blocked())
	}
}

// TestFanInPutRace chains 512 declared instances on the same two cells —
// half read them in one order, half in the other, so both cells carry a
// chain — and then puts both items at once from two goroutines, racing each
// put's wakes against the other put and the chains they continue along.
// Every instance must complete exactly once, with both items freed and
// nothing left waiting.
func TestFanInPutRace(t *testing.T) {
	const n = 512
	g := NewGraph("fan-in", 2)
	in := NewItemCollection[int, int](g, "in").WithGetCount(func(int) int { return n })
	tags := NewTagCollection[int](g, "t", false)
	var runs [n]atomic.Int32
	step := NewStepCollection(g, "s", func(i int) error {
		runs[i].Add(1)
		return nil
	}).WithGetsAppend(func(i int, ds []Dep) []Dep {
		return append(ds, in.Key(i%2), in.Key(1-i%2))
	})
	tags.Prescribe(step)
	err := g.Run(func() {
		for i := 0; i < n; i++ {
			tags.Put(i)
		}
		awaitParked(t, g, n)
		start, done := make(chan struct{}), make(chan struct{}, 2)
		for k := 0; k < 2; k++ {
			go func() {
				<-start
				in.Put(k, k)
				done <- struct{}{}
			}()
		}
		close(start)
		<-done
		<-done
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if r := runs[i].Load(); r != 1 {
			t.Fatalf("instance %d completed %d times, want once", i, r)
		}
	}
	s := g.Stats()
	if s.StepsDone != n || s.Aborts != n || s.Requeues != n {
		t.Fatalf("done/aborts/requeues = %d/%d/%d, want %d each", s.StepsDone, s.Aborts, s.Requeues, n)
	}
	if s.LiveItems != 0 || len(g.Blocked()) != 0 {
		t.Fatalf("live %d blocked %v, want both items freed and nothing waiting", s.LiveItems, g.Blocked())
	}
}

// TestKeyBeforePut: naming an item creates its cell empty — invisible to
// Len, TryGet and the statistics — and the later Put fills that same cell.
func TestKeyBeforePut(t *testing.T) {
	g := NewGraph("key-first", 1)
	items := NewItemCollection[int, string](g, "tbl")
	d := items.Key(5)
	c := d.c.(*cell[int, string])
	if d.String() != "tbl[5]" || c.state() != cellEmpty || items.Len() != 0 {
		t.Fatalf("Key before Put: %v state=%v Len=%d, want an empty cell", d, c.state(), items.Len())
	}
	err := g.Run(func() {
		if v, ok := items.TryGet(5); ok {
			t.Errorf("TryGet of an empty cell = %q, true", v)
		}
		items.Put(5, "five")
		if v, ok := items.TryGet(5); !ok || v != "five" {
			t.Errorf("TryGet after Put = %q, %v", v, ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.state() != cellPresent || items.Key(5) != d {
		t.Fatal("Put did not fill the cell the earlier Key named")
	}
	if s := g.Stats(); items.Len() != 1 || items.Puts() != 1 || s.LiveItems != 1 || s.ItemsPut != 1 {
		t.Fatalf("Len %d Puts %d LiveItems %d ItemsPut %d, want 1 each", items.Len(), items.Puts(), s.LiveItems, s.ItemsPut)
	}
}

// TestTableGrowthKeepsCells names 12k items with a string-carrying key type
// before any is put, each through the read set of a triggered instance, so
// every stripe's table grows several times while cells are waited on. The
// puts and reads then name the keys with freshly built strings: each must
// find the cell Key created — waking its instance — through real key
// equality, not pointer identity.
func TestTableGrowthKeepsCells(t *testing.T) {
	type key struct {
		name string
		i    int
	}
	const n = 12000
	mk := func(i int) key { return key{fmt.Sprintf("tile-%d", i), i % 7} }
	g := NewGraph("table-growth", 2)
	in := NewItemCollection[key, int](g, "in")
	tags := NewTagCollection[int](g, "t", false)
	var ran atomic.Int64
	deps := make([]Dep, n)
	step := NewStepCollection(g, "s", func(int) error {
		ran.Add(1)
		return nil
	}).WithTunedGetsAppend(func(i int, ds []Dep) []Dep {
		deps[i] = in.Key(mk(i))
		return append(ds, deps[i])
	})
	tags.Prescribe(step)
	err := g.Run(func() {
		for i := 0; i < n; i++ {
			tags.Put(i)
		}
		for i := 0; i < n; i++ {
			in.Put(mk(i), i)
		}
		for i := 0; i < n; i++ {
			if v, ok := in.TryGet(mk(i)); !ok || v != i {
				t.Errorf("TryGet(%v) = %d, %v, want %d, true", mk(i), v, ok, i)
			}
		}
		if _, ok := in.TryGet(key{"tile-0", 1}); ok {
			t.Error("TryGet of a key differing in one field found an item")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n || in.Len() != n || in.Puts() != n {
		t.Fatalf("ran %d Len %d Puts %d, want %d each", ran.Load(), in.Len(), in.Puts(), n)
	}
	cells := 0
	for i := range in.shards {
		sh := &in.shards[i]
		if 4*sh.cells > 3*len(sh.table) {
			t.Errorf("stripe %d holds %d cells in %d slots, more than ¾ full", i, sh.cells, len(sh.table))
		}
		cells += sh.cells
	}
	if cells != n+1 {
		t.Errorf("tables hold %d cells, want %d (every key once, plus the missed probe)", cells, n+1)
	}
	for i := 0; i < n; i += 997 {
		if in.Key(mk(i)) != deps[i] {
			t.Fatalf("Key(%v) after the growths names a different cell", mk(i))
		}
	}
}

// TestFreedCellErrors touches a freed cell in every way the runtime allows
// and pins the named error of each, with the discipline checker off and on
// (on, the same errors additionally carry the checker's attribution).
func TestFreedCellErrors(t *testing.T) {
	type access struct {
		name  string
		build func(items *ItemCollection[string, int], step *StepCollection[string])
		body  func(items *ItemCollection[string, int], tag string)
		want  string // substring of the error
		uaf   bool   // a *UseAfterFreeError is in the chain
	}
	key := func(items *ItemCollection[string, int]) func(string, []Dep) []Dep {
		return func(tag string, ds []Dep) []Dep { return append(ds, items.Key(tag)) }
	}
	accesses := []access{
		{name: "Get", want: "use-after-free", uaf: true,
			body: func(items *ItemCollection[string, int], tag string) { items.Get(tag) }},
		{name: "TryGet", want: "use-after-free", uaf: true,
			body: func(items *ItemCollection[string, int], tag string) {
				if _, ok := items.TryGet(tag); ok {
					panic("TryGet reported a freed item present")
				}
			}},
		{name: "re-Put", want: "single-assignment violation", uaf: true,
			body: func(items *ItemCollection[string, int], tag string) { items.Put(tag, 2) }},
		// A declared read: the runtime's read before the body reports it.
		{name: "release", want: "use-after-free", uaf: true,
			build: func(items *ItemCollection[string, int], step *StepCollection[string]) {
				step.WithGetsAppend(key(items))
			}},
		{name: "tuned-subscribe", want: "use-after-free", uaf: true,
			build: func(items *ItemCollection[string, int], step *StepCollection[string]) {
				step.WithTunedGetsAppend(key(items))
			}},
	}
	for _, checked := range []bool{false, true} {
		for _, a := range accesses {
			name := a.name
			if checked {
				name += "/checked"
			}
			t.Run(name, func(t *testing.T) {
				g := NewGraph("freed-cell", 1)
				if checked {
					g.WithDisciplineCheck(determinacy.NewDisciplineChecker())
				}
				items := NewItemCollection[string, int](g, "items")
				items.WithGetCount(func(string) int { return 0 }) // freed the moment it is put
				tags := NewTagCollection[string](g, "tags", false)
				step := NewStepCollection(g, "step", func(tag string) error {
					if a.body != nil {
						a.body(items, tag)
					}
					return nil
				})
				if a.build != nil {
					a.build(items, step)
				}
				tags.Prescribe(step)
				err := g.Run(func() {
					items.Put("x", 1)
					tags.Put("x")
				})
				if err == nil || !strings.Contains(err.Error(), a.want) {
					t.Fatalf("err = %v, want %q", err, a.want)
				}
				var uaf *UseAfterFreeError
				if errors.As(err, &uaf) != a.uaf {
					t.Fatalf("err = %v, UseAfterFreeError in chain = %v, want %v", err, !a.uaf, a.uaf)
				}
				if a.uaf && (uaf.Collection != "items" || uaf.Key != "x") {
					t.Fatalf("UseAfterFreeError = %+v, want items[x]", uaf)
				}
				// The checker, when installed, attributes the violation: a
				// double put for the re-Put, a get-count overdraw otherwise.
				attribution := "get-count overdraw on items[x]"
				if a.name == "re-Put" {
					attribution = "write-once violation on items[x]"
				}
				if strings.Contains(err.Error(), attribution) != checked {
					t.Fatalf("err = %v, carries %q = %v, want %v", err, attribution, !checked, checked)
				}
				if s := g.Stats(); items.Len() != 0 || items.Puts() != 1 || s.LiveItems != 0 || s.ItemsFreed != 1 {
					t.Fatalf("Len %d Puts %d LiveItems %d ItemsFreed %d, want 0/1/0/1",
						items.Len(), items.Puts(), s.LiveItems, s.ItemsFreed)
				}
			})
		}
	}
}

// tileKey has the layout of gep.ItemKey, the key of every tile item the
// benchmarks put (gep imports this package, so its tests cannot).
type tileKey struct{ I, J, K int }

// TestCellSize pins an item's footprint: a GE receipt cell — a tile key, a
// bool value, its state, get-count, backend handle and wait-chain head —
// is one 64-byte cache line.
func TestCellSize(t *testing.T) {
	if n := unsafe.Sizeof(cell[tileKey, bool]{}); n != 64 {
		t.Fatalf("cell[tileKey, bool] is %d bytes, want 64", n)
	}
}

// tag4 has the layout of the GE base-step tag (tile coordinates and a size).
type tag4 struct{ I, J, K, S int }

// TestInstanceSize pins a step instance's footprint: a GE base instance — its
// tag, four inline reads, the countdown, wait-chain link, admission put order
// and serial-order key — carries no field only admission reads and no slice
// header.
func TestInstanceSize(t *testing.T) {
	if n := unsafe.Sizeof(instance[tag4]{}); n > 160 {
		t.Fatalf("instance[tag4] is %d bytes, want at most 160", n)
	}
}

// TestInstanceFreeListRace has the environment and the workers acquire and
// recycle one collection's instances at once: the environment puts the
// roots, every root's step puts a child tag of the same collection from a
// worker, and every instance recycles on the worker that ran it. Each tag
// must run exactly once with its own read — an instance handed out twice,
// or lost between the free lists, would repeat or drop one. The throttled
// arm puts every tag through PutThrottled under a memory limit, so the
// roots, put before their items, are deferred and the accountant files and
// admits them beside the free lists.
func TestInstanceFreeListRace(t *testing.T) {
	const roots = 2000
	for _, limit := range []int64{0, 1 << 20} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			g := NewGraph("free-list", 4).WithMemoryLimit(limit)
			items := NewItemCollection[int, int](g, "x")
			items.WithGetCount(func(int) int { return 2 }).WithSizeOf(func(int) int { return 8 })
			tags := NewTagCollection[int](g, "t", false).WithTagBytes(func(int) int { return 8 })
			var ran [2 * roots]atomic.Int32
			step := NewStepCollection(g, "s", func(tag int) error {
				if items.Get(tag%roots) != tag%roots {
					return fmt.Errorf("tag %d read the wrong item", tag)
				}
				ran[tag].Add(1)
				if tag < roots {
					tags.PutThrottled(tag + roots)
				}
				return nil
			})
			step.WithGetsAppend(func(tag int, ds []Dep) []Dep { return append(ds, items.Key(tag%roots)) })
			tags.Prescribe(step)
			err := g.Run(func() {
				for i := 0; i < roots; i++ {
					tags.PutThrottled(i)
					items.Put(i, i)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for tag := range ran {
				if n := ran[tag].Load(); n != 1 {
					t.Fatalf("tag %d ran %d times, want 1", tag, n)
				}
			}
			if s := g.Stats(); s.LiveItems != 0 || limit > 0 && (s.BackpressureWaits == 0 || s.BackpressureStalls != 0) {
				t.Fatalf("live %d, waits %d, stalls %d: want every item freed and, throttled, deferred puts and no forced admission",
					s.LiveItems, s.BackpressureWaits, s.BackpressureStalls)
			}
		})
	}
}

// TestLaneFreeListsBounded ping-pongs tags between two lanes: each
// instance is put by an attempt on one lane and completes on the other, so
// the completing lane's free list fills while the putting lane's runs dry,
// and every so often the two swap roles. Past laneFreeMax a lane recycles
// onto the shared list, where the putting lane takes from once its own is
// empty: however many tags pass, the collection carves laneFreeMax + 1
// instances, a full lane's list and the one in flight. (Unbounded, the
// first phase alone would carve one per tag.)
func TestLaneFreeListsBounded(t *testing.T) {
	g := NewGraph("ping-pong", 2)
	sc := NewStepCollection(g, "s", func(int) error { return nil })
	lanes := [2]*Burst{&g.bursts[0].Burst, &g.bursts[1].Burst}
	carved := map[*instance[int]]bool{}
	for tag := range 40 * laneFreeMax {
		from := tag / (4 * laneFreeMax) % 2
		in := sc.acquire(tag, lanes[from])
		carved[in] = true
		in.recycle(lanes[1-from])
		for i := range sc.lanes {
			if n := sc.lanes[i].n; n > laneFreeMax {
				t.Fatalf("after tag %d lane %d holds %d free instances, over its bound %d", tag, i, n, laneFreeMax)
			}
		}
	}
	if len(carved) != laneFreeMax+1 {
		t.Fatalf("carved %d instances, want %d", len(carved), laneFreeMax+1)
	}
}

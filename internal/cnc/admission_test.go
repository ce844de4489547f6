package cnc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpflow/internal/exec"
)

// TestThrottledPutComplexity is the complexity gate of event-driven
// admission, counted rather than timed: the instance a throttled put
// prescribes resolves its declared gets once — to wait for them, read them
// and release them — however many other puts are pending. Before deferred
// puts waited on their cells, every item put re-ran every pending entry's
// callback (about n/2 invocations per put on these shapes); while the
// deferred entry and the instance were two waiters, each resolved them.
func TestThrottledPutComplexity(t *testing.T) {
	for _, shape := range []string{"chain", "fanin"} {
		for _, n := range []int{256, 4096} {
			t.Run(fmt.Sprintf("%s/%d", shape, n), func(t *testing.T) {
				var calls atomic.Int64
				g := NewGraph("gate", 1).WithMemoryLimit(1 << 40)
				env := throttledShape(g, shape, n, func() { calls.Add(1) })
				if err := g.Run(env); err != nil {
					t.Fatal(err)
				}
				s := g.Stats()
				if s.StepsDone != uint64(n)+1 || s.BackpressureWaits < int64(n-1) || s.BackpressureStalls != 0 {
					t.Fatalf("done %d waits %d stalls %d, want %d steps and the root done, every put but the chain's first deferred, none forced",
						s.StepsDone, s.BackpressureWaits, s.BackpressureStalls, n)
				}
				if calls.Load() != int64(n) {
					t.Fatalf("%d WithGets invocations for %d throttled puts (%.1f per put), want exactly 1 per put",
						calls.Load(), n, float64(calls.Load())/float64(n))
				}
			})
		}
	}
}

// TestThrottledSubscribeRacesItemPut races each deferred put's subscription
// against the put of the very item it waits for. An item that lands between
// the entry's look at the cell and its registration must not be lost: a lost
// wake leaves the entry waiting until the graph idles and force-admits it,
// which shows up as a stall.
func TestThrottledSubscribeRacesItemPut(t *testing.T) {
	const n = 512
	g := NewGraph("race-subscribe", 2).WithMemoryLimit(1 << 40)
	in := NewItemCollection[int, int](g, "in").WithGetCount(func(int) int { return 1 })
	ptags := NewTagCollection[int](g, "produce", false)
	ctags := NewTagCollection[int](g, "consume", false).WithTagBytes(func(int) int { return 8 })
	ptags.Prescribe(NewStepCollection(g, "p", func(i int) error { in.Put(i, i); return nil }))
	var sum atomic.Int64
	ctags.Prescribe(NewStepCollection(g, "c", func(i int) error {
		sum.Add(int64(in.Get(i)))
		return nil
	}).WithGets(func(i int) []Dep { return []Dep{in.Key(i)} }))
	if err := g.Run(func() {
		for i := 0; i < n; i++ {
			ptags.Put(i) // a worker puts item i while the environment defers its reader
			ctags.PutThrottled(i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if sum.Load() != n*(n-1)/2 || s.StepsDone != 2*n || s.Aborts != 0 {
		t.Fatalf("sum %d done %d aborts %d, want every reader admitted once with its item present", sum.Load(), s.StepsDone, s.Aborts)
	}
	if s.BackpressureStalls != 0 || s.LiveItems != 0 {
		t.Fatalf("stalls %d live %d, want 0 and 0 (a lost wake is only recovered by a forced admission)", s.BackpressureStalls, s.LiveItems)
	}
}

// TestForcedAdmissionIgnoresLaterWake admits an entry while it is still
// subscribed to its missing item, then puts that item, so the entry's wake
// arrives after it was admitted. Besides a forced admission, a cancellation
// flush is the one way a waiting entry gets admitted: a running step keeps
// the graph from idling, cancels the run, waits for the flush to make the
// entry a parked instance and puts the item. The woken instance must be
// dispatched at most once — the tuned reader counts each launch as a
// triggered run — and the run must end with the cancellation, not with the
// deadlock of an instance the wake failed to launch.
func TestForcedAdmissionIgnoresLaterWake(t *testing.T) {
	g := NewGraph("flushed-then-woken", 2).WithMemoryLimit(1 << 20)
	in := NewItemCollection[string, int](g, "in").WithGetCount(func(string) int { return 1 })
	tags := NewTagCollection[string](g, "tags", false).WithTagBytes(func(string) int { return 8 })
	var runs atomic.Int64
	tags.Prescribe(NewStepCollection(g, "reader", func(k string) error {
		in.Get(k)
		runs.Add(1)
		return nil
	}).WithTunedGetsAppend(func(k string, ds []Dep) []Dep { return append(ds, in.Key(k)) }))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hold := NewTagCollection[int](g, "hold", false)
	deferred := make(chan struct{})
	hold.Prescribe(NewStepCollection(g, "holder", func(int) error {
		<-deferred
		cancel()
		for deadline := time.Now().Add(5 * time.Second); g.parked() != 1; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("the cancellation did not flush the deferred reader into a parked instance")
				return nil
			}
		}
		in.Put("x", 1) // wakes the entry the flush has just admitted
		return nil
	}))
	err := g.RunContext(ctx, func() {
		hold.Put(0)
		tags.PutThrottled("x")
		close(deferred)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	s := g.Stats()
	if s.TriggeredRuns > 1 || runs.Load() > 1 || s.TagsPut != 2 {
		t.Fatalf("triggered %d runs %d tags %d, want the reader dispatched at most once", s.TriggeredRuns, runs.Load(), s.TagsPut)
	}
	if s.BackpressureWaits != 1 || s.BackpressureStalls != 0 {
		t.Fatalf("waits %d stalls %d, want 1 deferral flushed, none forced", s.BackpressureWaits, s.BackpressureStalls)
	}
}

// TestDeferredPutInBlocked stalls a throttled graph on an item nobody puts
// and reads what it is waiting for from Blocked() while a running step keeps
// the graph from idling — before the forced admission. The deferred instance
// is named, but it is not parked yet: the run must end in the deadlock of the
// instance once the forced admission makes it a parked one, not in a
// spurious one earlier, and it must be reported once.
func TestDeferredPutInBlocked(t *testing.T) {
	g := NewGraph("blocked-deferred", 2).WithMemoryLimit(1 << 20)
	in := NewItemCollection[string, int](g, "in")
	tags := NewTagCollection[string](g, "tags", false).WithTagBytes(func(string) int { return 8 })
	tags.Prescribe(NewStepCollection(g, "reader", func(k string) error {
		in.Get(k)
		return nil
	}).WithGets(func(k string) []Dep { return []Dep{in.Key(k)} }))
	hold := NewTagCollection[int](g, "hold", false)
	deferred, release := make(chan struct{}), make(chan struct{})
	hold.Prescribe(NewStepCollection(g, "holder", func(int) error {
		<-deferred
		if got, want := g.Blocked(), []string{"reader@never (deferred) <- in[never]"}; !slices.Equal(got, want) {
			t.Errorf("Blocked() while deferred = %q, want %q", got, want)
		}
		if n := g.parked(); n != 0 {
			t.Errorf("parked = %d with only a deferred instance waiting, want 0", n)
		}
		<-release
		return nil
	}))
	err := g.Run(func() {
		hold.Put(0)
		tags.PutThrottled("never")
		close(deferred)
		close(release)
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want the DeadlockError of the force-admitted reader", err)
	}
	if want := []string{"reader@never <- in[never]"}; !slices.Equal(dl.Blocked, want) {
		t.Fatalf("DeadlockError.Blocked = %q, want %q", dl.Blocked, want)
	}
	if s := g.Stats(); s.BackpressureStalls != 1 {
		t.Fatalf("BackpressureStalls = %d, want 1", s.BackpressureStalls)
	}
}

// TestThrottledPutOnFreedItem defers nothing forever: a throttled put whose
// step declares a get of an item that get-count GC already freed is admitted,
// and the run fails with the deterministic use-after-free — reported by the
// runtime's read before the body, so the reader's body never runs.
func TestThrottledPutOnFreedItem(t *testing.T) {
	g := NewGraph("freed-dep", 1).WithMemoryLimit(1 << 20)
	in := NewItemCollection[string, int](g, "in").WithGetCount(func(string) int { return 0 }) // freed on put
	tags := NewTagCollection[string](g, "tags", false).WithTagBytes(func(string) int { return 8 })
	var runs atomic.Int64
	tags.Prescribe(NewStepCollection(g, "reader", func(k string) error {
		runs.Add(1)
		in.Get(k)
		return nil
	}).WithGets(func(k string) []Dep { return []Dep{in.Key(k)} }))
	err := g.Run(func() {
		in.Put("x", 1)
		tags.PutThrottled("x")
	})
	var uaf *UseAfterFreeError
	if !errors.As(err, &uaf) || uaf.Collection != "in" || uaf.Key != "x" {
		t.Fatalf("err = %v, want UseAfterFreeError on in[x]", err)
	}
	if s := g.Stats(); runs.Load() != 0 || s.StepsStarted != 1 || s.BackpressureStalls != 0 {
		t.Fatalf("runs %d started %d stalls %d, want the reader admitted (once) without a forced admission and its body not run",
			runs.Load(), s.StepsStarted, s.BackpressureStalls)
	}
}

// TestThrottledTagDiscardedBeforeAdmission: a throttled tag that memoization
// or a DropTag hook discards prescribes no instance, so it must reserve no
// budget either. Each step puts one 100-byte item, freed on put, against a
// 400-byte limit: reserving for the discarded tags would leave bytes
// reserved after the run, and the budget they hold would force admissions.
func TestThrottledTagDiscardedBeforeAdmission(t *testing.T) {
	const cost = 100
	for _, discard := range []string{"memoized", "dropped"} {
		t.Run(discard, func(t *testing.T) {
			g := NewGraph("discarded-"+discard, 1).WithMemoryLimit(4 * cost)
			out := NewItemCollection[int, int](g, "out").
				WithGetCount(func(int) int { return 0 }).WithSizeOf(func(int) int { return cost })
			tags := NewTagCollection[int](g, "tags", discard == "memoized").WithTagBytes(func(int) int { return cost })
			tags.Prescribe(NewStepCollection(g, "work", func(i int) error { out.Put(i, i); return nil }))
			puts, want := []int{0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint64(9)
			if discard == "dropped" {
				puts, want = nil, 8
				g.SetHooks(&Hooks{DropTag: func(_ string, tag any) bool { return tag.(int)%3 == 0 }})
				for i := 0; i < 12; i++ {
					puts = append(puts, i)
				}
			}
			if err := g.Run(func() {
				for _, i := range puts {
					tags.PutThrottled(i)
				}
			}); err != nil {
				t.Fatal(err)
			}
			s := g.Stats()
			g.acct.mu.Lock()
			reserved := g.acct.reserved
			g.acct.mu.Unlock()
			if s.StepsDone != want || s.BackpressureStalls != 0 || s.LiveBytes != 0 || reserved != 0 {
				t.Fatalf("done %d stalls %d live %d reserved %d, want %d steps, no stall, nothing live or reserved",
					s.StepsDone, s.BackpressureStalls, s.LiveBytes, reserved, want)
			}
		})
	}
}

// TestThrottledTwoStepPrescription puts throttled tags prescribing two steps:
// each instance waits for its turn, but the tag's cost is reserved once — by
// the first — so one item put converts it and the budget never fills with
// reservations nothing will convert.
func TestThrottledTwoStepPrescription(t *testing.T) {
	const (
		n    = 32
		cost = 8
	)
	g := NewGraph("two-steps", 2).WithMemoryLimit(3 * cost)
	out := NewItemCollection[int, int](g, "out").
		WithGetCount(func(int) int { return 0 }).WithSizeOf(func(int) int { return cost })
	tags := NewTagCollection[int](g, "tags", false).WithTagBytes(func(int) int { return cost })
	var puts, marks atomic.Int64
	tags.Prescribe(NewStepCollection(g, "put", func(i int) error { out.Put(i, i); puts.Add(1); return nil }))
	tags.Prescribe(NewStepCollection(g, "mark", func(int) error { marks.Add(1); return nil }))
	if err := g.Run(func() {
		for i := 0; i < n; i++ {
			tags.PutThrottled(i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	g.acct.mu.Lock()
	reserved := g.acct.reserved
	g.acct.mu.Unlock()
	if puts.Load() != n || marks.Load() != n || s.TagsPut != n {
		t.Fatalf("put ran %d, mark ran %d, tags %d, want both steps once per tag (%d)", puts.Load(), marks.Load(), s.TagsPut, n)
	}
	if s.BackpressureStalls != 0 || s.PeakLiveBytes > 3*cost || reserved != 0 || s.LiveBytes != 0 {
		t.Fatalf("stalls %d peak %d reserved %d live %d, want no stall, peak within %d, nothing left reserved or live",
			s.BackpressureStalls, s.PeakLiveBytes, reserved, s.LiveBytes, 3*cost)
	}
}

// TestAdmissionOrderIsPutOrder binds the budget (limit = 3 tags: two growing
// puts fit, the third must leave headroom) and makes the deferred entries
// runnable in the reverse of their put order while two held steps keep the
// budget full. Admission must still go oldest put first: with one worker the
// execution order is the admission order.
func TestAdmissionOrderIsPutOrder(t *testing.T) {
	const (
		n    = 32
		cost = 8
	)
	g := NewGraph("order", 1).WithMemoryLimit(3 * cost)
	out := NewItemCollection[int, int](g, "out").
		WithGetCount(func(int) int { return 0 }).WithSizeOf(func(int) int { return cost })
	gate := NewItemCollection[int, bool](g, "gate").WithGetCount(func(int) int { return 1 })
	tags := NewTagCollection[int](g, "tags", false).WithTagBytes(func(int) int { return cost })
	release := make(chan struct{})
	var mu sync.Mutex
	var order []int
	tags.Prescribe(NewStepCollection(g, "work", func(i int) error {
		if i < 0 {
			<-release // the two blockers hold their reservations
		} else {
			gate.Get(i)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
		out.Put(i, i)
		return nil
	}).WithGets(func(i int) []Dep {
		if i < 0 {
			return nil
		}
		return []Dep{gate.Key(i)}
	}))
	if err := g.Run(func() {
		tags.PutThrottled(-1)
		tags.PutThrottled(-2)
		for i := 0; i < n; i++ {
			tags.PutThrottled(i)
		}
		for i := n - 1; i >= 0; i-- {
			gate.Put(i, true)
		}
		close(release)
	}); err != nil {
		t.Fatal(err)
	}
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	if !slices.Equal(order, want) {
		t.Fatalf("admission order %v, want put order", order)
	}
	s := g.Stats()
	if s.BackpressureWaits != n || s.BackpressureStalls != 0 || s.PeakLiveBytes > 3*cost || s.LiveItems != 0 {
		t.Fatalf("waits %d stalls %d peak %d live %d, want %d deferred, none forced, peak within %d",
			s.BackpressureWaits, s.BackpressureStalls, s.PeakLiveBytes, s.LiveItems, n, 3*cost)
	}
}

// TestGrowthFollowsKeyOrder: under a limit the live set grows in the serial
// elision's order. The environment puts tag 0, whose read is not there yet,
// then tag 1, which could run at once and would grow the live set. Tag 1
// must not overtake tag 0, although the budget has room for both; once the
// read is put, both run, tag 0 first, and nothing is forced.
func TestGrowthFollowsKeyOrder(t *testing.T) {
	const cost = 8
	g := NewGraph("growth-order", 1).WithMemoryLimit(8 * cost)
	out := NewItemCollection[int, int](g, "out").
		WithGetCount(func(int) int { return 0 }).WithSizeOf(func(int) int { return cost })
	gate := NewItemCollection[int, bool](g, "gate").WithGetCount(func(int) int { return 1 })
	tags := NewTagCollection[int](g, "tags", false).WithTagBytes(func(int) int { return cost })
	var order []int // one worker
	tags.Prescribe(NewStepCollection(g, "work", func(i int) error {
		order = append(order, i)
		out.Put(i, i)
		return nil
	}).WithGets(func(i int) []Dep {
		if i == 0 {
			return []Dep{gate.Key(0)}
		}
		return nil
	}))
	if err := g.Run(func() {
		tags.PutThrottled(0)
		tags.PutThrottled(1)
		gate.Put(0, true)
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1}) {
		t.Fatalf("ran %v, want key order [0 1]", order)
	}
	if s := g.Stats(); s.BackpressureWaits != 2 || s.BackpressureStalls != 0 {
		t.Fatalf("waits %d stalls %d, want 2 deferred and none forced", s.BackpressureWaits, s.BackpressureStalls)
	}
}

// TestChildKeyOrder: keys built by childKey sort in the depth-first order of
// the tree of puts — an attempt before the tags it puts, each one's subtree
// before the next sibling — and a key out of bits stays its parent's.
func TestChildKeyOrder(t *testing.T) {
	type node struct {
		key  uint64
		bits uint8
		path string
	}
	var dfs []node
	var walk func(key uint64, bits uint8, path string, depth int)
	walk = func(key uint64, bits uint8, path string, depth int) {
		dfs = append(dfs, node{key, bits, path})
		if depth == 3 {
			return
		}
		for i := uint64(0); i < 9; i += 1 + uint64(depth) {
			k, b := childKey(key, bits, i)
			walk(k, b, fmt.Sprintf("%s/%d", path, i), depth+1)
		}
	}
	for i := uint64(0); i < 3; i++ {
		k, b := childKey(0, 0, i)
		walk(k, b, fmt.Sprint(i), 0)
	}
	for i := 1; i < len(dfs); i++ {
		if dfs[i-1].key >= dfs[i].key && !strings.HasPrefix(dfs[i].path, dfs[i-1].path+"/0") {
			t.Fatalf("key of %s (%#x) does not sort before %s (%#x)", dfs[i-1].path, dfs[i-1].key, dfs[i].path, dfs[i].key)
		}
	}
	if k, b := childKey(^uint64(0), 63, 5); k != ^uint64(0) || b != 63 {
		t.Fatalf("childKey past 64 bits = %#x, %d; want the parent's key", k, b)
	}
}

// TestPutThrottledIntoKeepsBurst: under a limit, tags an attempt puts
// through PutThrottledInto and admits on the spot are staged in its burst
// like PutInto's — they reach the attempt's lane in one PushTo when it
// returns, made by the lane's own running worker, so on a one-worker
// executor only the environment's enqueues can wake it: at most one wake
// per phase.
func TestPutThrottledIntoKeepsBurst(t *testing.T) {
	const phases, perPhase = 4, 64
	ex := exec.New(1)
	defer ex.Close()
	g := NewGraph("burst-limited", 1).WithExecutor(ex).WithMemoryLimit(1 << 40)
	tags := NewTagCollection[int](g, "tags", false).WithTagBytes(func(int) int { return 8 })
	tags.Prescribe(NewStepCollection(g, "nop", func(int) error { return nil }))
	phase := NewTagCollection[int](g, "phase", false)
	phase.Prescribe(NewStepCollectionInto(g, "fan", func(p int, bu *Burst) error {
		for i := 0; i < perPhase; i++ {
			tags.PutThrottledInto(p*perPhase+i, bu)
		}
		if len(bu.rs) != perPhase {
			t.Errorf("phase %d: %d dispatches staged in the burst before its flush, want %d", p, len(bu.rs), perPhase)
		}
		return nil
	}))
	if err := g.Run(func() {
		for p := 0; p < phases; p++ {
			phase.Put(p)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.StepsDone != phases*(perPhase+1) || s.BackpressureWaits != 0 {
		t.Fatalf("done %d waits %d, want every tag admitted immediately", s.StepsDone, s.BackpressureWaits)
	}
	if s.Wakeups > phases {
		t.Fatalf("Wakeups = %d for %d phases on one lane, want at most one per phase", s.Wakeups, phases)
	}
}

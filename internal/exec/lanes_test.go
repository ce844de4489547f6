package exec

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// funcUnit adapts a plain func() to Unit. Func values are pointer-shaped,
// so the interface conversion itself does not allocate.
type funcUnit func()

func (f funcUnit) Run(int) { f() }

// idUnit is a distinguishable Unit for the order tests.
type idUnit int

func (idUnit) Run(int) {}

// funcSource adapts a function to Source.
type funcSource func(slot, budget int) int

func (f funcSource) RunSlot(slot, budget int) int { return f(slot, budget) }

// pushEnds is the table the lane-level tests run over: the core must keep
// its guarantees for units enqueued and spawned alike. Each row is named for
// the order an owner takes a stream of such units in: enqueued round-robin
// (Push), oldest-first; spawned on the given slot's lane (PushTo),
// newest-first.
var pushEnds = []struct {
	name string
	push func(q *Lanes, slot int, u Unit)
}{
	{"ownerFIFO", func(q *Lanes, _ int, u Unit) { q.Push(u) }},
	{"ownerLIFO", func(q *Lanes, slot int, u Unit) { q.PushTo(slot, u) }},
}

func forPushEnds(t *testing.T, f func(t *testing.T, push func(q *Lanes, slot int, u Unit))) {
	for _, pe := range pushEnds {
		t.Run(pe.name, func(t *testing.T) { f(t, pe.push) })
	}
}

// takeAll drains slot's share of q through Take and returns the ids in
// take order.
func takeAll(q *Lanes, slot int) []int {
	var got []int
	for u := q.Take(slot); u != nil; u = q.Take(slot) {
		got = append(got, int(u.(idUnit)))
	}
	return got
}

// drainRing pops everything through pop and returns the ids in pop order.
func drainRing(r *ring, pop func(*ring) Unit) []int {
	var got []int
	for u := pop(r); u != nil; u = pop(r) {
		got = append(got, int(u.(idUnit)))
	}
	return got
}

// TestRingGrowsWhileWrapped grows the ring with head ≠ 0 and the live
// window straddling the end of the backing array: the copy must preserve
// age order, from either end.
func TestRingGrowsWhileWrapped(t *testing.T) {
	for _, end := range []struct {
		name string
		pop  func(*ring) Unit
		want []int
	}{
		{"popFront", (*ring).popFront, []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
		{"popBack", (*ring).popBack, []int{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5}},
	} {
		t.Run(end.name, func(t *testing.T) {
			var r ring
			for i := 0; i < 8; i++ { // fill to capacity 8
				r.pushBack(idUnit(i))
			}
			for i := 0; i < 5; i++ { // head = 5
				r.popFront()
			}
			for i := 8; i < 17; i++ { // wraps at 11, grows at 13
				r.pushBack(idUnit(i))
			}
			if r.n != 12 || len(r.buf) != 16 {
				t.Fatalf("ring holds %d in capacity %d, want 12 in 16", r.n, len(r.buf))
			}
			if got := drainRing(&r, end.pop); !slices.Equal(got, end.want) {
				t.Fatalf("drained %v, want %v", got, end.want)
			}
		})
	}
}

// TestRingInterleavedEnds interleaves popBack and popFront on a wrapped
// ring: each end must see exactly the newest / oldest live element.
func TestRingInterleavedEnds(t *testing.T) {
	var r ring
	for i := 0; i < 8; i++ {
		r.pushBack(idUnit(i))
	}
	for i := 0; i < 6; i++ {
		r.popFront()
	}
	for i := 8; i < 12; i++ { // live: 6..11, wrapped (head = 6, cap 8)
		r.pushBack(idUnit(i))
	}
	var got []int
	for r.n > 0 {
		got = append(got, int(r.popBack().(idUnit)))
		if u := r.popFront(); u != nil {
			got = append(got, int(u.(idUnit)))
		}
	}
	if want := []int{11, 6, 10, 7, 9, 8}; !slices.Equal(got, want) {
		t.Fatalf("interleaved pops = %v, want %v", got, want)
	}
	if r.popBack() != nil || r.popFront() != nil {
		t.Fatal("empty ring returned an element")
	}
}

// TestRingReusesBacking is the allocation-bound regression test for the
// re-slicing leak the seed queues had (`q.items = q.items[1:]` kept dead
// backing-array heads alive): steady-state push/pop through a warm ring
// must not allocate, and drained slots must not retain their units.
func TestRingReusesBacking(t *testing.T) {
	for _, end := range []struct {
		name string
		pop  func(*ring) Unit
	}{{"popFront", (*ring).popFront}, {"popBack", (*ring).popBack}} {
		t.Run(end.name, func(t *testing.T) {
			var r ring
			f := funcUnit(func() {})
			for i := 0; i < 8; i++ { // warm up to capacity 8
				r.pushBack(f)
			}
			for i := 0; i < 8; i++ {
				end.pop(&r)
			}
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < 8; i++ {
					r.pushBack(f)
				}
				for i := 0; i < 8; i++ {
					if end.pop(&r) == nil {
						t.Fatal("ring lost an element")
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state ring cycle allocates %v objects per run, want 0", allocs)
			}
			for i, u := range r.buf {
				if u != nil {
					t.Fatalf("drained ring retains a unit at slot %d", i)
				}
			}
		})
	}
}

// TestLanesOwnerAndThiefOrder pins down the one discipline: units spawned
// with PushTo are taken newest-first by their slot's owner and oldest-first
// by a thief (ownerLIFO); units enqueued with Push are taken oldest-first by
// everyone, by the owner after its spawned units and by a thief before
// them (ownerFIFO).
func TestLanesOwnerAndThiefOrder(t *testing.T) {
	t.Run("ownerLIFO", func(t *testing.T) {
		q := NewLanes(2, 1)
		for i := 1; i <= 4; i++ {
			q.PushTo(0, idUnit(i))
		}
		if stolen := q.Take(1); stolen != idUnit(1) {
			t.Fatalf("thief took %v, want the oldest unit 1", stolen)
		}
		if got, want := takeAll(q, 0), []int{4, 3, 2}; !slices.Equal(got, want) {
			t.Fatalf("owner order = %v, want %v", got, want)
		}
		// One PushTo of several units: the owner takes them in push order.
		q.PushTo(0, idUnit(1), idUnit(2), idUnit(3))
		if got, want := takeAll(q, 0), []int{1, 2, 3}; !slices.Equal(got, want) {
			t.Fatalf("owner order of one spawn = %v, want %v", got, want)
		}
	})
	t.Run("ownerFIFO", func(t *testing.T) {
		q := NewLanes(1, 1)
		q.Push(idUnit(8))
		q.PushTo(0, idUnit(1), idUnit(2))
		q.Push(idUnit(9))
		if got, want := takeAll(q, 0), []int{1, 2, 8, 9}; !slices.Equal(got, want) {
			t.Fatalf("owner order = %v, want %v", got, want)
		}
		// Two lanes: every second round-robin push lands on lane 1, the
		// first of them there.
		q = NewLanes(2, 1)
		q.PushTo(1, idUnit(1), idUnit(2))
		for i := 6; i <= 9; i++ {
			q.Push(idUnit(i)) // 6 and 8 on lane 1, 7 and 9 on lane 0
		}
		q.Push(idUnit(10)) // lane 1, behind 6 and 8
		// Slot 0 takes its own enqueued units, then steals lane 1's
		// enqueued ones oldest-first, then its spawned ones oldest-first.
		if got, want := takeAll(q, 0), []int{7, 9, 6, 8, 10, 2, 1}; !slices.Equal(got, want) {
			t.Fatalf("owner-then-thief order = %v, want %v", got, want)
		}
	})
}

// TestLanesStealCounters checks the steal path without an executor: the
// slot whose lane is empty steals the unit pushed onto the other's, and the
// counters record it.
func TestLanesStealCounters(t *testing.T) {
	forPushEnds(t, func(t *testing.T, push func(*Lanes, int, Unit)) {
		q := NewLanes(2, 1)
		push(q, 0, funcUnit(func() {}))
		thief := 1
		if l := &q.lanes[1]; l.spawned.n+l.queued.n > 0 {
			thief = 0
		}
		if q.Take(thief) == nil {
			t.Fatalf("slot %d failed to steal from the other lane", thief)
		}
		if steals, _, _ := q.Counters(); steals != 1 {
			t.Fatalf("steals = %d, want 1", steals)
		}
		if q.Take(thief) != nil {
			t.Fatal("second take returned phantom work")
		}
		if _, failed, _ := q.Counters(); failed == 0 {
			t.Fatal("empty-victim probe was not counted in failedProbes")
		}
	})
}

// TestLanesPlacement checks round-robin placement: consecutive pushes land
// on consecutive lanes, so five units on three lanes touch every lane before
// any lane gets a second unit.
func TestLanesPlacement(t *testing.T) {
	t.Run("Push", func(t *testing.T) {
		q := NewLanes(3, 1)
		for i := 0; i < 5; i++ {
			q.Push(idUnit(i))
		}
		for i := range q.lanes {
			if n := q.lanes[i].queued.n; n < 1 || n > 2 {
				t.Fatalf("lane %d holds %d of 5 units, want 1 or 2", i, n)
			}
		}
		if q.RunSlot(0, 16) != 5 {
			t.Fatal("one slot did not drain all lanes")
		}
	})
}

// TestLanesQuiesceOneSlot checks the deterministic single-slot contract:
// every pushed unit runs exactly once and a drained core reports no phantom
// work.
func TestLanesQuiesceOneSlot(t *testing.T) {
	forPushEnds(t, func(t *testing.T, push func(*Lanes, int, Unit)) {
		q := NewLanes(1, 1)
		const n = 100
		got := 0
		for i := 0; i < n; i++ {
			push(q, 0, funcUnit(func() { got++ }))
		}
		if ran := q.RunSlot(0, n); ran != n {
			t.Fatalf("RunSlot drained %d units, want %d", ran, n)
		}
		if q.Take(0) != nil {
			t.Fatal("Take on drained lanes returned work")
		}
		if got != n {
			t.Fatalf("executed %d units, want %d", got, n)
		}
	})
}

// TestLanesVictimOrderSeeded checks the one-word victim RNG: the sweep
// start is reproducible for a (seed, lane) pair, differs between lanes, and
// reaches every victim.
func TestLanesVictimOrderSeeded(t *testing.T) {
	const n, draws = 8, 256
	starts := func(seed int64, slot int) []int {
		q := NewLanes(n, seed)
		out := make([]int, draws)
		for i := range out {
			out[i] = q.lanes[slot].victimStart(n)
		}
		return out
	}
	a, b := starts(7, 0), starts(7, 0)
	if !slices.Equal(a, b) {
		t.Fatal("same (seed, lane) produced different victim orders")
	}
	if slices.Equal(a, starts(7, 1)) || slices.Equal(a, starts(8, 0)) {
		t.Fatal("victim order does not depend on the (seed, lane) pair")
	}
	seen := make(map[int]bool)
	for _, s := range a {
		seen[s] = true
	}
	if len(seen) != n {
		t.Fatalf("sweep starts covered %d of %d lanes in %d draws", len(seen), n, draws)
	}
}

// TestLanesSteadyStateAllocs extends the ring bound through the core's API:
// a warm push/take cycle with no parked workers allocates nothing.
func TestLanesSteadyStateAllocs(t *testing.T) {
	forPushEnds(t, func(t *testing.T, push func(*Lanes, int, Unit)) {
		q := NewLanes(2, 1)
		f := funcUnit(func() {})
		cycle := func() {
			push(q, 0, f)
			q.PushTo(0, f, f)
			q.Push(f)
			if q.Take(0) == nil || q.Take(0) == nil || q.Take(0) == nil || q.Take(0) == nil {
				t.Fatal("lanes lost a unit")
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Fatalf("steady-state push/take allocates %v objects per run, want 0", allocs)
		}
	})
}

// TestLanesLeaseNoLostWakeup ping-pongs a single unit through the full
// push → Notify → executor-claim → RunSlot path with the consumer side
// fully idle between units — the tightest race between a push and a
// physical worker parking. A lost wakeup hangs the test.
func TestLanesLeaseNoLostWakeup(t *testing.T) {
	forPushEnds(t, func(t *testing.T, push func(*Lanes, int, Unit)) {
		e := New(1)
		defer e.Close()
		q := NewLanes(1, 1)
		defer q.Lease(e, "q").Close()
		const rounds = 5000
		ran := make(chan struct{}, 1)
		for i := 0; i < rounds; i++ {
			push(q, 0, funcUnit(func() { ran <- struct{}{} }))
			select {
			case <-ran:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: wakeup lost (the unit never ran)", i)
			}
		}
	})
}

// TestLanesConcurrentStress hammers PushTo/Push/steal through a
// real executor lease from many pushers (run under -race in CI): every unit
// must execute exactly once.
func TestLanesConcurrentStress(t *testing.T) {
	forPushEnds(t, func(t *testing.T, push func(*Lanes, int, Unit)) {
		const workers = 4
		const pushers = 4
		const perPusher = 2000
		e := New(workers)
		defer e.Close()
		q := NewLanes(workers, 1)

		var executed atomic.Int64
		q.Lease(e, "stress")
		count := funcUnit(func() { executed.Add(1) })

		var pwg sync.WaitGroup
		pwg.Add(pushers)
		for p := 0; p < pushers; p++ {
			go func(p int) {
				defer pwg.Done()
				for i := 0; i < perPusher; i++ {
					switch i % 4 {
					case 0:
						q.PushTo((p+i)%workers, count)
					case 1:
						q.Push(count)
					default:
						push(q, (p+i)%workers, count)
					}
				}
			}(p)
		}
		pwg.Wait()

		deadline := time.Now().Add(30 * time.Second)
		for executed.Load() != pushers*perPusher {
			if time.Now().After(deadline) {
				t.Fatalf("executed %d of %d units (lost work or lost wakeup)", executed.Load(), pushers*perPusher)
			}
			time.Sleep(time.Millisecond)
		}
		q.lease.Close()
		if steals, _, wakeups := q.Counters(); steals+wakeups == 0 {
			t.Fatal("stress run recorded neither steals nor wakeups — counters dead?")
		}
	})
}

// BenchmarkLanesPushTake measures the raw push/take cycle with no parked
// workers (the hot steady-state path; allocation-free, see
// TestLanesSteadyStateAllocs).
func BenchmarkLanesPushTake(b *testing.B) {
	for _, pe := range pushEnds {
		b.Run(pe.name, func(b *testing.B) {
			q := NewLanes(1, 1)
			f := funcUnit(func() {})
			for b.Loop() {
				pe.push(q, 0, f)
				if q.Take(0) == nil {
					b.Fatal("lanes lost the unit")
				}
			}
		})
	}
}

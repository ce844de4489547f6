package exec

import (
	"sync"
	"sync/atomic"
)

// Unit is one unit of dispatched work, run on the logical slot that took
// it. It is an interface rather than a func() so the hot dispatch paths can
// enqueue pooled values (cnc's step instances, forkjoin's *frame) without
// allocating: storing a pointer in an interface is allocation-free, while
// every func() closure capturing a tag is a fresh heap object.
type Unit interface{ Run(slot int) }

// ring is a growable circular deque. It reuses its backing array, so
// steady-state push/pop allocates nothing and retains no dead elements
// (regression-tested with testing.AllocsPerRun).
type ring struct {
	buf  []Unit
	head int // index of the oldest element
	n    int
}

func (r *ring) pushBack(u Unit) {
	if r.n == len(r.buf) {
		c := len(r.buf) * 2
		if c == 0 {
			c = 8
		}
		nb := make([]Unit, c)
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = u
	r.n++
}

// popFront removes the oldest element, or returns nil.
func (r *ring) popFront() Unit {
	if r.n == 0 {
		return nil
	}
	u := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return u
}

// popBack removes the newest element, or returns nil.
func (r *ring) popBack() Unit {
	if r.n == 0 {
		return nil
	}
	r.n--
	i := (r.head + r.n) % len(r.buf)
	u := r.buf[i]
	r.buf[i] = nil
	return u
}

// lane is one logical slot's share of the work: the units spawned on it
// (a deque: the owner takes the newest, thieves the oldest), the units
// enqueued on it (a FIFO queue, taken oldest-first by everyone), and one
// word of xorshift state for the owner's victim order.
type lane struct {
	mu      sync.Mutex
	spawned ring
	queued  ring
	rng     uint64 // touched only by the slot's current claim
}

// victimStart advances the lane's xorshift64 state and returns the lane its
// steal sweep over n lanes starts at.
func (l *lane) victimStart(n int) int {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	return int((l.rng >> 32) % uint64(n))
}

// Lanes is the work-stealing core both runtimes schedule through: one lane
// per leased slot. It is the lease's Source, so executor workers drain it
// directly, and every push reports through Lease.Notify after the enqueue
// completed — the order the executor's clear-then-reprobe dirty bit needs
// to never strand work (see the package comment).
//
// Both runtimes share one discipline, the nested-parallel order of
// work-stealing schedulers, with TBB's spawn/enqueue split. PushTo spawns
// on a lane's deque — what its owner runs next, newest first; Push
// enqueues round-robin on the lanes' FIFO queues — what runs after the
// spawned work, oldest first. A slot takes the newest unit it spawned,
// else the oldest unit enqueued on its lane, else sweeps the other lanes
// once, from a seeded random start, and steals from the first non-empty
// victim its oldest enqueued unit, else its oldest spawned one. The
// executor runs at most one claim per slot, so the victim RNG has a single
// consumer.
type Lanes struct {
	lanes []lane

	// lease is set by Lease before the client's first push and left in place
	// after the lease closes: Notify on a closed lease is a no-op, so late
	// pushes from stray goroutines cannot race a nil check.
	lease *Lease

	next atomic.Uint64 // round-robin placement cursor

	steals       atomic.Uint64
	failedProbes atomic.Uint64
	wakeups      atomic.Uint64
}

// NewLanes creates n lanes (minimum 1). The victim order of lane i is
// seeded from (seed, i), so a run is reproducible for a given shape;
// results never depend on it.
func NewLanes(n int, seed int64) *Lanes {
	if n < 1 {
		n = 1
	}
	q := &Lanes{lanes: make([]lane, n)}
	for i := range q.lanes {
		// An odd multiplier is a bijection, so distinct (seed, i) pairs get
		// distinct states; xorshift only needs the state to be nonzero.
		x := (uint64(seed) + uint64(i)*7919 + 1) * 0x9E3779B97F4A7C15
		if x == 0 {
			x = 1
		}
		q.lanes[i].rng = x
	}
	return q
}

// Lease registers the lanes with e, one slot per lane, and routes every
// later push's notification to that lease.
func (q *Lanes) Lease(e *Executor, name string) *Lease {
	q.lease = e.Lease(name, len(q.lanes), q)
	return q.lease
}

// Counters returns the units taken from another slot's lane, the steal
// probes that found an empty victim, and the pushes whose Notify actually
// roused a parked physical worker — at most one per push, so wakeups never
// exceed dispatches.
func (q *Lanes) Counters() (steals, failedProbes, wakeups uint64) {
	return q.steals.Load(), q.failedProbes.Load(), q.wakeups.Load()
}

func (q *Lanes) notify(slot int) {
	if l := q.lease; l != nil && l.Notify(slot) {
		q.wakeups.Add(1)
	}
}

// Push enqueues a stealable unit on the next lane in round-robin order,
// behind the units already enqueued there.
func (q *Lanes) Push(u Unit) {
	slot := int(q.next.Add(1) % uint64(len(q.lanes)))
	l := &q.lanes[slot]
	l.mu.Lock()
	l.queued.pushBack(u)
	l.mu.Unlock()
	q.notify(slot)
}

// PushTo spawns stealable units on the given slot's deque, so the slot's
// owner takes them next, in the given order — a spawner's depth-first
// order — while thieves reach them last; one lock acquisition and one
// notification for all of them. Pushing nothing is a no-op.
func (q *Lanes) PushTo(slot int, us ...Unit) {
	if len(us) == 0 {
		return
	}
	l := &q.lanes[slot]
	l.mu.Lock()
	for i := len(us) - 1; i >= 0; i-- {
		l.spawned.pushBack(us[i])
	}
	l.mu.Unlock()
	q.notify(slot)
}

// Take returns one unit runnable on slot without blocking, or nil: the
// newest unit spawned on its own lane, else the oldest enqueued there, else
// one stolen. Only the slot's current claim may call it (forkjoin's helping
// Wait does, from inside the unit the claim is running).
func (q *Lanes) Take(slot int) Unit {
	l := &q.lanes[slot]
	l.mu.Lock()
	u := l.spawned.popBack()
	if u == nil {
		u = l.queued.popFront()
	}
	l.mu.Unlock()
	if u == nil {
		u = q.steal(slot)
	}
	return u
}

// steal probes the other lanes once each, from the lane's seeded random
// start, taking a victim's oldest enqueued unit, else its oldest spawned
// one.
func (q *Lanes) steal(slot int) Unit {
	n := len(q.lanes)
	if n == 1 {
		return nil
	}
	start := q.lanes[slot].victimStart(n)
	for i := 0; i < n; i++ {
		vi := (start + i) % n
		if vi == slot {
			continue
		}
		v := &q.lanes[vi]
		v.mu.Lock()
		u := v.queued.popFront()
		if u == nil {
			u = v.spawned.popFront()
		}
		v.mu.Unlock()
		if u != nil {
			q.steals.Add(1)
			return u
		}
		q.failedProbes.Add(1)
	}
	return nil
}

// RunSlot implements Source: run up to budget units available to slot,
// returning as soon as nothing is runnable.
func (q *Lanes) RunSlot(slot, budget int) int {
	n := 0
	for n < budget {
		u := q.Take(slot)
		if u == nil {
			break
		}
		u.Run(slot)
		n++
	}
	return n
}

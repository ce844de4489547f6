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

// StealPolicy selects how an idle slot picks steal victims. Both runtimes
// take it (cnc.Graph.SetStealPolicy, forkjoin.Config.Policy), which keeps
// their scheduling disciplines comparable: Dinh & Simhadri show that
// nested-parallel is the special case of nested-dataflow and that one
// work-stealing scheduler serves both.
type StealPolicy int

const (
	// StealRandom probes victims in (pseudo) random order; the default, as
	// in Cilk-style runtimes.
	StealRandom StealPolicy = iota
	// StealSequential probes victims in round-robin order starting after
	// the thief; kept as an ablation knob.
	StealSequential
)

// String renders the policy for Describe output.
func (p StealPolicy) String() string {
	if p == StealSequential {
		return "sequential"
	}
	return "random"
}

// OwnerEnd is the one scheduling decision the runtimes disagree on: which
// end of its own stealable queue a slot takes from. Thieves always take the
// oldest unit.
type OwnerEnd bool

const (
	// OwnerFIFO takes the oldest unit. Data-flow needs it: a non-blocking
	// CnC step makes progress by re-putting its own tag behind the producers
	// it polls for, and under owner-LIFO a slot would re-pop its own re-put
	// forever.
	OwnerFIFO OwnerEnd = false
	// OwnerLIFO takes the newest unit, the child-stealing order of fork-join
	// runtimes: the owner keeps the small, cache-warm sub-computations and
	// thieves get the oldest, typically largest ones.
	OwnerLIFO OwnerEnd = true
)

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

// lane is one logical slot's share of the work: a queue other slots may
// steal from, and one word of xorshift state for the owner's victim order.
type lane struct {
	mu    sync.Mutex
	queue ring
	rng   uint64 // touched only by the slot's current claim
}

// victimStart advances the lane's xorshift64 state and returns the lane a
// random-order sweep over n lanes starts at.
func (l *lane) victimStart(n int) int {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	return int((l.rng >> 32) % uint64(n))
}

// Lanes is the work-stealing core both runtimes schedule through: one lane
// per leased slot. It is the lease's Source, so executor workers drain it
// directly, and every push reports through Lease.Notify after the enqueue
// completed — the order the executor's clear-before-scan dirty bits need to
// never strand work (see the package comment).
//
// A slot takes from its own queue at the end the constructor chose, then
// sweeps the other lanes once, taking the oldest unit of the first
// non-empty victim. The executor runs at most one claim per slot, so the
// victim RNG has a single consumer.
type Lanes struct {
	lanes  []lane
	owner  OwnerEnd
	policy StealPolicy

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
func NewLanes(n int, owner OwnerEnd, policy StealPolicy, seed int64) *Lanes {
	if n < 1 {
		n = 1
	}
	q := &Lanes{lanes: make([]lane, n), owner: owner, policy: policy}
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

// Policy returns the victim order the lanes were built with.
func (q *Lanes) Policy() StealPolicy { return q.policy }

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

// Push enqueues a stealable unit on the next lane in round-robin order.
func (q *Lanes) Push(u Unit) {
	q.PushTo(int(q.next.Add(1)%uint64(len(q.lanes))), u)
}

// PushTo enqueues a stealable unit on the given slot's lane.
func (q *Lanes) PushTo(slot int, u Unit) {
	l := &q.lanes[slot]
	l.mu.Lock()
	l.queue.pushBack(u)
	l.mu.Unlock()
	q.notify(slot)
}

// PushBatch enqueues a burst of stealable units round-robin with one lock
// acquisition and one notification per touched lane instead of one per
// unit: at most min(len(us), lanes) wakes for the whole burst.
func (q *Lanes) PushBatch(us []Unit) {
	if len(us) == 0 {
		return
	}
	n := len(q.lanes)
	start := int((q.next.Add(uint64(len(us))) - uint64(len(us))) % uint64(n))
	touched := min(n, len(us))
	for off := 0; off < touched; off++ {
		l := &q.lanes[(start+off)%n]
		l.mu.Lock()
		for i := off; i < len(us); i += n {
			l.queue.pushBack(us[i])
		}
		l.mu.Unlock()
	}
	for off := 0; off < touched; off++ {
		q.notify((start + off) % n)
	}
}

// Take returns one unit runnable on slot without blocking, or nil. Only the
// slot's current claim may call it (forkjoin's helping Wait does, from
// inside the unit the claim is running).
func (q *Lanes) Take(slot int) Unit {
	l := &q.lanes[slot]
	l.mu.Lock()
	var u Unit
	if q.owner == OwnerLIFO {
		u = l.queue.popBack()
	} else {
		u = l.queue.popFront()
	}
	l.mu.Unlock()
	if u == nil {
		u = q.steal(slot)
	}
	return u
}

// steal probes the other lanes once each, in policy order.
func (q *Lanes) steal(slot int) Unit {
	n := len(q.lanes)
	if n == 1 {
		return nil
	}
	start := slot + 1
	if q.policy == StealRandom {
		start = q.lanes[slot].victimStart(n)
	}
	for i := 0; i < n; i++ {
		vi := (start + i) % n
		if vi == slot {
			continue
		}
		v := &q.lanes[vi]
		v.mu.Lock()
		u := v.queue.popFront()
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

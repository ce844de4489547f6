// Package exec is the process-wide scheduler: one pool of physical worker
// goroutines, sized to GOMAXPROCS, that every runtime in the module leases
// logical workers from, and the one work-stealing core (Lanes) those
// runtimes queue their work in. N concurrent graphs and pools therefore
// multiplex onto GOMAXPROCS goroutines instead of running N×workers of
// them, and cross-graph admission control has one place to stand.
//
//   - a client leases `slots` logical workers (its configured concurrency
//     cap) and hands the lease a Source — a non-blocking "run up to budget
//     units of work on logical slot s" entry point, where every unit can
//     run on any slot. Both runtimes use Lanes as their Source: per-slot
//     stealable queues, one victim sweep, one budgeted drain loop, one
//     owner/thief discipline (lanes.go). What they keep for themselves is
//     placement — which pushes spawn on the pushing slot's own lane and
//     which enqueue round-robin — whether a waiting task helps, and their
//     envelope types;
//   - physical workers multiplex across all active leases: they claim one
//     logical slot at a time (so per-slot state — the owner's end of the
//     lane, victim RNG — keeps its single-consumer discipline), run a bounded
//     batch, release the slot and rotate to the next lease with work;
//   - idleness is handled here, once: Lanes marks the lease dirty after
//     every push (Lease.Notify) and the executor's register-then-reprobe
//     park protocol guarantees no lost wakeup without a thundering herd.
//
// Total goroutines are therefore bounded by the executor size plus O(1)
// per in-flight run (callers blocked in Run), never by jobs × workers.
//
// # Claim protocol
//
// A lease's logical slot is run by at most one physical worker at a time,
// and any slot can run any unit its Source holds. A serving worker
// therefore claims, by CAS, the first free slot of a dirty lease, starting
// at its own worker index, and runs one batch there. A batch that ran its
// full budget leaves the lease dirty, since more work likely waits.
//
// # Dirty-bit discipline (lost-wakeup freedom)
//
// A lease has one dirty bit. Notify sets it after the client's push
// completed, then wakes at most one parked physical worker. A worker clears
// the bit only after a probe that found nothing — an empty pass, or the end
// of a batch that stopped short of its budget, which a Source returns only
// when nothing is runnable — and then probes once more from the slot it
// still holds. A unit pushed before the clear is found by
// that second probe, because any slot can take it; a unit pushed after the
// clear sets the bit again. A worker that finds every slot busy returns
// without clearing: those claims' run loops take the work, and a worker
// that releases a slot always sweeps again before it parks. A physical
// worker parks only after registering in the parked set and sweeping every
// lease once more — the push-enqueues-then-wakes / park-registers-then-
// reprobes pairing that makes the token handoff race-free.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Source is the client side of a lease: a runtime able to execute its own
// work on a logical worker without blocking. RunSlot must run up to budget
// units on logical worker `slot` and return the number actually run,
// returning (rather than blocking) as soon as nothing is runnable. Every
// unit must be runnable on any slot — the executor serves a lease through
// whichever slot is free — so a slot whose own share is empty steals from
// the others. The executor guarantees at most one RunSlot call per slot is
// in flight.
type Source interface {
	RunSlot(slot, budget int) int
}

// batchBudget bounds one slot claim: after this many units the physical
// worker releases the slot and rotates to the next lease with work, so a
// busy tenant cannot monopolise a physical worker against a newly dirty
// one. Large enough that the claim overhead (one CAS + one sweep) is noise
// against hundreds of step executions.
const batchBudget = 256

// Stats is a snapshot of executor activity.
type Stats struct {
	Workers int    // physical worker goroutines
	Leases  int    // currently registered leases
	Claims  uint64 // slot claims that ran at least one unit
	Units   uint64 // work units executed across all leases
	Parks   uint64 // physical workers that went to sleep
	Wakeups uint64 // wake tokens handed to parked workers
}

// Executor is a pool of physical worker goroutines multiplexing every
// active lease. Create one with New (tests, pinned-GOMAXPROCS harnesses)
// or share the process-wide Default.
type Executor struct {
	workers int

	leases  atomic.Pointer[[]*Lease] // copy-on-write snapshot for lock-free sweeps
	leaseMu sync.Mutex               // serialises snapshot rewrites

	parkMu   sync.Mutex
	parked   []int
	isParked []bool
	done     bool
	nParked  atomic.Int32
	wake     []chan struct{}

	claims  atomic.Uint64
	units   atomic.Uint64
	parks   atomic.Uint64
	wakeups atomic.Uint64

	wg sync.WaitGroup
}

// New creates and starts an executor with the given number of physical
// workers (minimum 1; 0 means GOMAXPROCS). Close it when done — except the
// process-wide Default, which lives for the process.
func New(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{workers: workers}
	empty := make([]*Lease, 0)
	e.leases.Store(&empty)
	e.isParked = make([]bool, workers)
	e.wake = make([]chan struct{}, workers)
	for i := range e.wake {
		e.wake[i] = make(chan struct{}, 1)
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.loop(i)
	}
	return e
}

var (
	defaultOnce sync.Once
	defaultExec *Executor
)

// Default returns the process-wide executor, created on first use with
// GOMAXPROCS physical workers. Every cnc.Graph and forkjoin.Pool without an
// explicit executor runs here, which is what lets N concurrent graphs
// multiplex instead of oversubscribing. Never Close it.
func Default() *Executor {
	defaultOnce.Do(func() { defaultExec = New(0) })
	return defaultExec
}

// Workers returns the number of physical workers.
func (e *Executor) Workers() int { return e.workers }

// Stats returns a snapshot of the executor's activity counters.
func (e *Executor) Stats() Stats {
	return Stats{
		Workers: e.workers,
		Leases:  len(*e.leases.Load()),
		Claims:  e.claims.Load(),
		Units:   e.units.Load(),
		Parks:   e.parks.Load(),
		Wakeups: e.wakeups.Load(),
	}
}

// Close shuts the executor down and joins its workers. Callers must close
// every lease first; work still queued in leased runtimes is abandoned.
// Closing Default is a bug.
func (e *Executor) Close() {
	e.parkMu.Lock()
	e.done = true
	ws := append([]int(nil), e.parked...)
	for _, id := range ws {
		e.removeParkedLocked(id)
	}
	e.parkMu.Unlock()
	for _, id := range ws {
		select {
		case e.wake[id] <- struct{}{}:
		default:
		}
	}
	e.wg.Wait()
}

// Lease registers a client with `slots` logical workers. The lease is
// served immediately; call Notify after every push of work and Close when
// the client is done (Close waits for in-flight slot claims to drain, so
// after it returns the executor will never call src again).
func (e *Executor) Lease(name string, slots int, src Source) *Lease {
	if slots < 1 {
		slots = 1
	}
	l := &Lease{
		ex:       e,
		name:     name,
		src:      src,
		slots:    slots,
		slotBusy: make([]atomic.Bool, slots),
		idle:     make(chan struct{}),
	}
	e.leaseMu.Lock()
	old := *e.leases.Load()
	next := make([]*Lease, len(old)+1)
	copy(next, old)
	next[len(old)] = l
	e.leases.Store(&next)
	e.leaseMu.Unlock()
	return l
}

func (e *Executor) removeLease(l *Lease) {
	e.leaseMu.Lock()
	old := *e.leases.Load()
	next := make([]*Lease, 0, len(old))
	for _, o := range old {
		if o != l {
			next = append(next, o)
		}
	}
	e.leases.Store(&next)
	e.leaseMu.Unlock()
}

// Lease is one client's reservation of logical workers on the executor.
type Lease struct {
	ex    *Executor
	name  string
	src   Source
	slots int

	dirty    atomic.Bool
	slotBusy []atomic.Bool

	closed   atomic.Bool
	active   atomic.Int64  // physical workers currently inside serve()
	idle     chan struct{} // closed once the closed lease has drained
	idleOnce sync.Once
}

// Name returns the name the lease was registered with.
func (l *Lease) Name() string { return l.name }

// Notify marks the lease as having work and wakes at most one parked
// physical worker. slot names the slot the work was pushed on; any slot
// serves it. Call Notify after the push that made the work visible — never
// before — so a worker's clear-then-reprobe cannot miss it. Returns whether
// a parked worker was actually woken (the client-visible wake bill).
func (l *Lease) Notify(slot int) bool {
	if l.closed.Load() {
		return false
	}
	if !l.dirty.Load() {
		l.dirty.Store(true)
	}
	return l.ex.wakeOne()
}

// Close deregisters the lease and blocks until every in-flight slot claim
// has returned: after Close, the executor never calls the lease's Source
// again. Work still queued inside the client is the client's to drain or
// abandon. Close is idempotent and safe to call concurrently: every caller
// waits for the same drain.
func (l *Lease) Close() {
	if !l.closed.Swap(true) {
		l.ex.removeLease(l)
	}
	// No claim can start once closed is set (enter re-checks it), so the
	// exit that takes active to zero closes idle and releases every waiter.
	if l.active.Load() > 0 {
		<-l.idle
	}
}

// enter/exit bracket one physical worker's serve pass over the lease.
func (l *Lease) enter() bool {
	if l.closed.Load() {
		return false
	}
	l.active.Add(1)
	if l.closed.Load() {
		l.exit()
		return false
	}
	return true
}

func (l *Lease) exit() {
	if l.active.Add(-1) == 0 && l.closed.Load() {
		l.idleOnce.Do(func() { close(l.idle) })
	}
}

// serve claims the first free slot of l, starting at slot id, runs one
// batch there and returns the number of units run. With every slot busy it
// returns 0 and leaves the dirty bit set: those claims' run loops take the
// work.
func (e *Executor) serve(l *Lease, id int) int {
	if !l.enter() {
		return 0
	}
	defer l.exit()
	for i := 0; i < l.slots; i++ {
		s := (id + i) % l.slots
		if !l.slotBusy[s].CompareAndSwap(false, true) {
			continue
		}
		n := l.src.RunSlot(s, batchBudget)
		full := n >= batchBudget
		if !full {
			// The batch stopped short, so its last probe found nothing:
			// clear, then probe once more. A push that landed before the
			// clear is found here, since any slot can run it; one after it
			// sets the bit again.
			l.dirty.Store(false)
			m := l.src.RunSlot(s, batchBudget)
			n, full = n+m, m >= batchBudget
		}
		l.slotBusy[s].Store(false)
		if full {
			// More work likely waits: keep the lease dirty, whoever cleared it.
			l.dirty.Store(true)
		}
		if n > 0 {
			e.claims.Add(1)
			e.units.Add(uint64(n))
		}
		return n
	}
	return 0
}

// sweep serves one lease with work for worker id, rotating its cursor for
// fairness across tenants. Returns whether any work ran.
func (e *Executor) sweep(id int, cursor *int) bool {
	ls := *e.leases.Load()
	n := len(ls)
	if n == 0 {
		return false
	}
	for i := 0; i < n; i++ {
		idx := (*cursor + i) % n
		l := ls[idx]
		if !l.dirty.Load() {
			continue
		}
		if e.serve(l, id) > 0 {
			*cursor = (idx + 1) % n
			return true
		}
	}
	return false
}

func (e *Executor) loop(id int) {
	defer e.wg.Done()
	cursor := id // stagger starting positions across workers
	for {
		if e.sweep(id, &cursor) {
			continue
		}
		// Register as parked, then sweep once more before sleeping: a
		// Notify that missed the registration completed its push first, so
		// this sweep sees the dirty bit; a Notify that saw it leaves a
		// token.
		e.parkMu.Lock()
		if e.done {
			e.parkMu.Unlock()
			return
		}
		e.isParked[id] = true
		e.parked = append(e.parked, id)
		e.nParked.Add(1)
		e.parkMu.Unlock()
		if e.sweep(id, &cursor) {
			e.cancelPark(id)
			continue
		}
		e.parks.Add(1)
		<-e.wake[id]
		// A stale token can deliver before anyone deregistered us: always
		// deregister here so the parked set never holds a running worker.
		e.cancelPark(id)
		e.parkMu.Lock()
		stop := e.done
		e.parkMu.Unlock()
		if stop {
			return
		}
	}
}

// wakeOne hands a token to one parked worker (most recently parked first —
// warmest stack). No-op when nobody is parked, checked without the lock.
func (e *Executor) wakeOne() bool {
	if e.nParked.Load() == 0 {
		return false
	}
	e.parkMu.Lock()
	chosen := -1
	if n := len(e.parked); n > 0 {
		chosen = e.parked[n-1]
		e.removeParkedLocked(chosen)
	}
	e.parkMu.Unlock()
	if chosen < 0 {
		return false
	}
	e.wakeups.Add(1)
	select {
	case e.wake[chosen] <- struct{}{}:
	default:
	}
	return true
}

func (e *Executor) cancelPark(id int) {
	e.parkMu.Lock()
	if e.isParked[id] {
		e.removeParkedLocked(id)
	}
	e.parkMu.Unlock()
}

func (e *Executor) removeParkedLocked(id int) {
	e.isParked[id] = false
	e.nParked.Add(-1)
	for i, w := range e.parked {
		if w == id {
			e.parked = append(e.parked[:i], e.parked[i+1:]...)
			return
		}
	}
}

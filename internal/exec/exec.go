// Package exec is the process-wide scheduler: one pool of physical worker
// goroutines, sized to GOMAXPROCS, that every runtime in the module leases
// logical workers from, and the one work-stealing core (Lanes) those
// runtimes queue their work in. N concurrent graphs and pools therefore
// multiplex onto GOMAXPROCS goroutines instead of running N×workers of
// them, and cross-graph admission control has one place to stand.
//
//   - a client leases `slots` logical workers (its configured concurrency
//     cap) and hands the lease a Source — a non-blocking "run up to budget
//     units of work on logical slot s" entry point. Both runtimes use Lanes
//     as their Source: per-slot stealable queues, one victim sweep, one
//     budgeted drain loop (lanes.go). What they keep for
//     themselves is policy — which end the owner takes from, how work is
//     placed, whether a waiting task helps — and their envelope types;
//   - physical workers multiplex across all active leases: they claim one
//     logical slot at a time (so per-slot state — queue end, victim RNG —
//     keeps its single-consumer discipline), run a bounded
//     batch, release the slot and rotate to the next lease with work;
//   - idleness is handled here, once: Lanes marks the lease dirty after
//     every push (Lease.Notify) and the executor's register-then-reprobe
//     park protocol guarantees no lost wakeup without a thundering herd.
//
// Total goroutines are therefore bounded by the executor size plus O(1)
// per in-flight run (context monitors, callers blocked in Run), never by
// jobs × workers.
//
// # Claim protocol
//
// A lease's logical slot is run by at most one physical worker at a time:
// slots are claimed by CAS, and a claim runs the Source until it reports no
// work or a batch budget is exhausted. Clients tag pushes with a slot hint
// (Notify(slot)); hinted slots are claimed preferentially, which is how a
// Source's slot-only work — runnable only on its designated logical worker
// — is guaranteed to be served even when other slots are idle. Work that
// any slot can serve (stealable queues) is covered by a fallback claim of
// any free slot.
//
// # Dirty-bit discipline (lost-wakeup freedom)
//
// Notify sets the slot's dirty bit and the lease's dirty bit *after* the
// client's push completed, then wakes at most one parked physical worker.
// A serving worker clears the lease dirty bit before scanning and each slot
// dirty bit before running it, so a push racing with the scan re-dirties
// and re-wakes. A dirty slot found busy (another worker inside it) re-sets
// the lease dirty bit: either the busy claim's own run loop sees the new
// work, or a later sweep re-claims the slot once it is released. A physical
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
// units of work available to logical worker `slot` — including work it can
// steal from the client's other slots — and return the number actually
// run, returning (rather than blocking) as soon as nothing is runnable.
// The executor guarantees at most one RunSlot call per slot is in flight.
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
		ex:        e,
		name:      name,
		src:       src,
		slots:     slots,
		slotDirty: make([]atomic.Bool, slots),
		slotBusy:  make([]atomic.Bool, slots),
		idle:      make(chan struct{}),
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

	dirty     atomic.Bool
	slotDirty []atomic.Bool
	slotBusy  []atomic.Bool

	closed   atomic.Bool
	active   atomic.Int64  // physical workers currently inside serve()
	idle     chan struct{} // closed once the closed lease has drained
	idleOnce sync.Once

	claims atomic.Uint64
	units  atomic.Uint64
}

// Name returns the name the lease was registered with.
func (l *Lease) Name() string { return l.name }

// Units returns the number of work units the executor has run for this
// lease.
func (l *Lease) Units() uint64 { return l.units.Load() }

// Notify marks logical slot `slot` (any slot when out of range, e.g. -1)
// as having work and wakes at most one parked physical worker. Call it
// after the push that made the work visible — never before — so the
// executor's clear-before-scan discipline cannot miss it. Returns whether
// a parked worker was actually woken (the client-visible wake bill).
func (l *Lease) Notify(slot int) bool {
	if l.closed.Load() {
		return false
	}
	if slot >= 0 && slot < l.slots && !l.slotDirty[slot].Load() {
		l.slotDirty[slot].Store(true)
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

// serve runs one bounded pass over the lease: claim dirty slots first
// (slot-only work is runnable only on its hinted slot), then — if nothing was
// claimed — any free slot once, which serves stealable work whose hint
// slot is busy or stale. Returns the number of units run.
func (e *Executor) serve(l *Lease) int {
	if !l.enter() {
		return 0
	}
	defer l.exit()
	// Clear-before-scan: a Notify racing with this pass re-dirties.
	l.dirty.Store(false)
	total := 0
	claimed := false
	for s := 0; s < l.slots; s++ {
		if !l.slotDirty[s].Load() {
			continue
		}
		if !l.slotBusy[s].CompareAndSwap(false, true) {
			// Busy dirty slot: its current claim either sees the new work in
			// its own run loop or a later sweep re-claims it — either way the
			// lease must stay visibly dirty so that sweep happens.
			l.dirty.Store(true)
			continue
		}
		claimed = true
		l.slotDirty[s].Store(false)
		total += l.runClaimed(s)
	}
	if !claimed && total == 0 {
		// No claimable dirty slot; try one free slot so stealable work with
		// a busy hint slot is still served.
		for s := 0; s < l.slots; s++ {
			if l.slotBusy[s].CompareAndSwap(false, true) {
				total = l.runClaimed(s)
				break
			}
		}
	}
	if total > 0 {
		e.claims.Add(1)
		e.units.Add(uint64(total))
		l.claims.Add(1)
		l.units.Add(uint64(total))
	}
	return total
}

// runClaimed runs one batch on slot s, which the caller has marked busy, and
// releases the slot.
func (l *Lease) runClaimed(s int) int {
	n := l.src.RunSlot(s, batchBudget)
	l.slotBusy[s].Store(false)
	if n >= batchBudget {
		// Budget exhausted, so there is likely more work, and it may be
		// runnable only on this slot: keep the slot dirty, not only the lease, or nothing
		// would claim s again until the next Notify(s).
		l.slotDirty[s].Store(true)
		l.dirty.Store(true)
	}
	return n
}

// sweep serves one lease with work, rotating the worker's cursor for
// fairness across tenants. Returns whether any work ran.
func (e *Executor) sweep(cursor *int) bool {
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
		if e.serve(l) > 0 {
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
		if e.sweep(&cursor) {
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
		if e.sweep(&cursor) {
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

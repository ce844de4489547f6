package cnc

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// BackpressureReport is the diagnostic snapshot delivered to
// Hooks.OnBackpressureStall the first time backpressure cannot clear: the
// graph went idle — no step running, queued, or able to run — while
// deferred puts were still waiting for budget, and the runtime had to admit
// one over budget to preserve liveness. It is the backpressure analogue of
// the Watchdog's stall dump: enough state to explain why the budget
// could not clear.
type BackpressureReport struct {
	// LiveItems and LiveBytes are the accountant's state at stall time.
	LiveItems int64
	LiveBytes int64
	// Reserved is the budget committed to admitted-but-unmaterialised work.
	Reserved int64
	// Limit is the configured memory budget.
	Limit int64
	// Pending is the number of deferred tag puts still waiting for budget.
	Pending int
	// Blocked is the wait-state dump (Graph.Blocked) at stall time: parked
	// step instances and deferred puts, each with the item it waits for.
	Blocked []string
}

// pendingPut is the accountant's entry for one throttled tag put: its
// declared byte cost, the declared gets of its prescribed steps — resolved to
// cells once, when the tag is put — and a countdown of those still empty. It
// is the non-generic head of a deferredPut[T], which is the waiter subscribed
// to the empty cells and holds the typed tag.
type pendingPut struct {
	self deferred // the deferredPut[T] this entry is embedded in
	cost int64
	deps []Dep
	buf  [4]Dep // backing store of deps for the common small read sets

	// remaining counts the subscriptions that have not fired, plus enqueue's
	// +1 sentinel (as in a step instance): it reaches zero at most once, after every
	// subscribe call has been issued and the entry is on the pending list.
	remaining atomic.Int64
	// state is written under accountant.mu; waitLabel reads it without.
	state atomic.Uint32

	// seq is the put order among deferred entries (the waits count when it
	// was deferred); prev and next link the pending list, which is in that
	// order. Guarded by accountant.mu.
	seq        int64
	prev, next *pendingPut
}

// The life of a deferred entry. It leaves putWaiting for putRunnable when
// its countdown reaches zero, or straight for putAdmitted when it is
// force-admitted or flushed while still subscribed — its later wake then
// finds it admitted and does nothing.
const (
	putWaiting uint32 = iota
	putRunnable
	putAdmitted
)

// deferred is the typed half of an entry, a *deferredPut[T].
type deferred interface {
	waiter
	// admit puts the tag, dispatching into bu when one is open. recycle says
	// nothing can still reach the entry — no cell holds it and no wake is in
	// flight — so it may go back to its pool.
	admit(bu *Burst, recycle bool)
}

// freeable reports how many accounted bytes the entry's steps would free on
// completion: the total size of its declared gets for which this read is the
// last. Admission uses it to tell memory-releasing puts from growing ones.
func (p *pendingPut) freeable() int64 {
	var n int64
	for _, d := range p.deps {
		n += d.c.freeableBytes()
	}
	return n
}

func bySeq(p, q *pendingPut) int { return cmp.Compare(p.seq, q.seq) }

// accountant tracks live items and bytes for one graph and implements the
// admission control behind Graph.WithMemoryLimit.
//
// Two kinds of budget consumption exist:
//
//   - live bytes: items put on collections with a SizeOf hint and not yet
//     freed by get-count garbage collection;
//   - reserved bytes: tags admitted through TagCollection.PutThrottled whose
//     declared cost (WithTagBytes) has been committed but whose item has not
//     materialised yet. Reservations convert to live bytes as items are put,
//     so admission sees the memory a tag *will* occupy, not only the memory
//     already occupied.
//
// Throttling is asynchronous: a PutThrottled that does not fit (or whose
// step's declared gets are not all present yet) is deferred, not blocked —
// the putter continues immediately, and the deferred tag is admitted later.
// Deferring instead of blocking is what makes throttling safe from inside
// step bodies: a blocked worker goroutine cannot execute the very consumers
// whose completions would free the budget it waits for.
//
// A deferred put waits the way a step instance does — on the cells. Its
// declared gets are resolved once, it subscribes to the ones still empty,
// and the put of its last missing item moves it to the runnable set: an item
// put costs the entries that read that item, not the whole queue. The
// readiness gate matters as much as the byte check: admitting a tag whose
// step immediately parks converts budget into a reservation nothing can
// free, and enough of those wedge the graph. Gating on readiness keeps the
// budget working on steps that can actually run, complete, and release
// their inputs — the degraded-parallelism mode the memory limit promises.
//
// The pump looks only at runnable entries, oldest put first, and admits the
// ones that fit. Events that cannot change its answer skip it: with nothing
// runnable, only the graph going idle (or a cancellation) needs a pass.
//
// Admission weighs each put's net memory effect. A put is *freeing* when
// its steps' declared gets include enough last-read items (remaining
// get-count 1) to cover the put's own cost: running it does not grow the
// live set. Freeing puts may fill the budget completely. *Growing* puts
// must leave maxCost of headroom, so that a freeing consumer of the bytes
// they produce always remains admissible. Without that asymmetry the
// budget fills to exactly the limit with items whose consumers each cost
// one more tag than is left — a self-inflicted wedge in which only forced
// admissions make progress.
//
// Liveness: if the graph goes fully idle (no step queued or executing, no
// environment running) while puts are still pending, no free can ever land
// and the budget will never clear — the bound is infeasible for this graph
// and schedule. The pump then force-admits one entry — the oldest runnable
// memory-releasing one, else the oldest runnable, else the oldest — records
// a BackpressureStall, and reports the first such event through
// Hooks.OnBackpressureStall. The run degrades gracefully — the footprint
// exceeds the limit by the minimum needed to restore progress — instead of
// deadlocking or aborting.
type accountant struct {
	g *Graph

	// limit is write-before-Run configuration.
	limit int64

	mu        sync.Mutex
	liveItems int64
	liveBytes int64
	reserved  int64
	maxCost   int64 // largest throttled-put cost seen (growing-put headroom)
	peakItems int64
	peakBytes int64
	freed     int64
	waits     int64
	stalls    int64
	reported  bool // the stall hook fired (at most once per run)

	// head and tail are the pending list: every deferred entry not yet
	// admitted, in put order. runnable is the subset whose countdown reached
	// zero, sorted by seq.
	head, tail *pendingPut
	runnable   []*pendingPut

	// pendingN and runnableN mirror the two sets' sizes for the lock-free
	// checks on the hot put/free/taskDone paths.
	pendingN  atomic.Int64
	runnableN atomic.Int64

	// pumpMu serialises pump passes; repump coalesces triggers that arrive
	// while a pass is running (including reentrant ones from inline step
	// execution inside an admitted put).
	pumpMu sync.Mutex
	repump atomic.Bool
}

func (a *accountant) init(g *Graph) { a.g = g }

// limited reports whether a memory budget is configured.
func (a *accountant) limited() bool { return a.limit > 0 }

// admitItem charges one put item of the given size. Reserved bytes are
// converted first: the item materialises work whose cost admission already
// committed, so a put of a fully reserved item never raises the total.
func (a *accountant) admitItem(size int64) {
	a.mu.Lock()
	if conv := a.reserved; conv > 0 {
		if conv > size {
			conv = size
		}
		a.reserved -= conv
	}
	a.liveItems++
	a.liveBytes += size
	if a.liveItems > a.peakItems {
		a.peakItems = a.liveItems
	}
	if a.liveBytes > a.peakBytes {
		a.peakBytes = a.liveBytes
	}
	a.mu.Unlock()
}

// admissible reports whether p, whose declared gets are all present, fits
// the budget now. Freeing puts (freeable covers cost) may fill it
// completely; growing puts leave maxCost of headroom so a freeing consumer
// is always admissible — unless the budget is empty, in which case there is
// nothing a consumer could free and the headroom would only strand limits
// smaller than two tags. The cell probes behind freeable run only when the
// classification decides. Callers hold a.mu.
func (a *accountant) admissible(p *pendingPut) bool {
	used := a.liveBytes + a.reserved
	total := used + p.cost
	if total > a.limit {
		return false
	}
	return used == 0 || total+a.maxCost <= a.limit || p.freeable() >= p.cost
}

// enqueue admits one throttled tag put immediately when nothing is pending
// ahead of it, its declared gets are present and it fits; otherwise it
// defers it. Callers must have checked limited().
func (a *accountant) enqueue(p *pendingPut, bu *Burst) {
	if a.g.cancelled.Load() {
		p.self.admit(bu, true) // drain mode retires the instance without executing it
		return
	}
	p.state.Store(putWaiting)
	p.remaining.Store(1) // the sentinel
	for _, d := range p.deps {
		p.remaining.Add(1)
		if !d.c.subscribe(p.self) {
			p.remaining.Add(-1)
		}
	}
	a.mu.Lock()
	if p.cost > a.maxCost {
		a.maxCost = p.cost
	}
	if a.head == nil && p.remaining.Load() == 1 && a.admissible(p) {
		a.reserved += p.cost
		a.mu.Unlock()
		p.self.admit(bu, true)
		return
	}
	a.waits++
	p.seq = a.waits
	p.prev, p.next = a.tail, nil
	if a.tail != nil {
		a.tail.next = p
	} else {
		a.head = p
	}
	a.tail = p
	a.pendingN.Add(1)
	// A pending put holds the graph open: quiescence must wait for every
	// deferred tag to be admitted (or flushed by cancellation).
	a.g.outstanding.Add(1)
	a.mu.Unlock()
	a.arrive(p) // retire the sentinel
	a.pump()
}

// arrive retires one unit of p's countdown — a cell it subscribed to was
// put, or enqueue's sentinel — and on the last moves p to the runnable set.
// It does not pump: the item put (or enqueue) that called it does, once its
// own wakeups are out.
func (a *accountant) arrive(p *pendingPut) {
	if p.remaining.Add(-1) != 0 {
		return
	}
	a.mu.Lock()
	if p.state.Load() == putWaiting {
		p.state.Store(putRunnable)
		i, _ := slices.BinarySearchFunc(a.runnable, p, bySeq)
		a.runnable = slices.Insert(a.runnable, i, p)
		a.runnableN.Store(int64(len(a.runnable)))
	}
	a.mu.Unlock()
}

// pump runs admission passes while one could admit something: an entry is
// runnable, or the graph is idle or cancelled with entries pending. TryLock
// plus the repump flag coalesces concurrent and reentrant triggers (an
// admitted put can run a step inline, which can free items and re-trigger
// the pump) into the single running pass.
func (a *accountant) pump() {
	for {
		n := a.pendingN.Load()
		if n == 0 {
			return
		}
		idle := a.g.outstanding.Load() <= n // only our own pending holds are left
		if a.runnableN.Load() == 0 && !idle && !a.g.cancelled.Load() {
			return
		}
		if !a.pumpMu.TryLock() {
			a.repump.Store(true)
			return
		}
		a.repump.Store(false)
		a.drain()
		a.pumpMu.Unlock()
		if !a.repump.Load() {
			return
		}
	}
}

// next picks the entry to admit now, or nil. Callers hold a.mu.
func (a *accountant) next() (p *pendingPut, forced bool) {
	if a.g.cancelled.Load() {
		return a.head, false // flush: drain mode retires instances without executing
	}
	for _, p := range a.runnable {
		if a.admissible(p) {
			return p, false
		}
	}
	// Nothing fits (or is runnable). If the rest of the graph is idle — every
	// outstanding unit is one of our own pending holds — no free can ever
	// land: force-admit an entry to preserve liveness. Prefer a runnable
	// memory-releasing one so the degraded run tracks the live-set floor
	// instead of replaying the unbounded schedule.
	if a.g.outstanding.Load() > a.pendingN.Load() {
		return nil, false
	}
	for _, p := range a.runnable {
		if p.freeable() >= p.cost {
			return p, true
		}
	}
	if len(a.runnable) > 0 {
		return a.runnable[0], true
	}
	return a.head, true // nothing runnable either: flush in order
}

// drain admits pending puts until none is admissible. Each admission
// releases a.mu before calling the put, so admitted tags can prescribe,
// inline-run, and re-defer without holding the accountant lock.
func (a *accountant) drain() {
	for {
		a.mu.Lock()
		p, forced := a.next()
		if p == nil {
			a.mu.Unlock()
			return
		}
		wasRunnable := p.state.Load() == putRunnable
		if wasRunnable {
			// The oldest is the usual pick: drop it without moving the rest
			// (a lone entry goes through Delete, which keeps the capacity).
			if a.runnable[0] == p && len(a.runnable) > 1 {
				a.runnable[0], a.runnable = nil, a.runnable[1:]
			} else {
				i, _ := slices.BinarySearchFunc(a.runnable, p, bySeq)
				a.runnable = slices.Delete(a.runnable, i, i+1)
			}
			a.runnableN.Store(int64(len(a.runnable)))
		}
		if p.prev != nil {
			p.prev.next = p.next
		} else {
			a.head = p.next
		}
		if p.next != nil {
			p.next.prev = p.prev
		} else {
			a.tail = p.prev
		}
		p.prev, p.next = nil, nil
		a.reserved += p.cost
		var report *BackpressureReport
		if forced {
			a.stalls++
			if !a.reported {
				a.reported = true
				// Dumped before p is marked admitted, so the report still
				// names what p itself was waiting for.
				report = &BackpressureReport{
					LiveItems: a.liveItems,
					LiveBytes: a.liveBytes,
					Reserved:  a.reserved,
					Limit:     a.limit,
					Pending:   int(a.pendingN.Load()),
					Blocked:   a.g.collectBlocked(),
				}
			}
		}
		p.state.Store(putAdmitted)
		a.pendingN.Add(-1)
		a.mu.Unlock()
		if report != nil {
			if h := a.g.hooks; h != nil && h.OnBackpressureStall != nil {
				h.OnBackpressureStall(*report)
			}
		}
		// An entry admitted while still waiting may sit on wait lists and have
		// a wake in flight; only one that was runnable is out of reach.
		p.self.admit(nil, wasRunnable)
		a.g.taskDone() // release the pending hold after the put lands
	}
}

// free retires one item of the given size and re-triggers admission.
func (a *accountant) free(size int64) {
	a.mu.Lock()
	a.liveItems--
	a.liveBytes -= size
	a.freed++
	a.mu.Unlock()
	a.pump()
}

// refund undoes an admitItem whose put failed (single-assignment violation
// or use-after-free re-put): the item never became live.
func (a *accountant) refund(size int64) {
	a.mu.Lock()
	a.liveItems--
	a.liveBytes -= size
	a.mu.Unlock()
	a.pump()
}

// memStats is the accountant's contribution to Stats.
type memStats struct {
	liveItems, peakItems, freed int64
	liveBytes, peakBytes        int64
	waits, stalls               int64
}

func (a *accountant) snapshot() memStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return memStats{
		liveItems: a.liveItems, peakItems: a.peakItems, freed: a.freed,
		liveBytes: a.liveBytes, peakBytes: a.peakBytes,
		waits: a.waits, stalls: a.stalls,
	}
}

// WithMemoryLimit sets a live-bytes budget for the run. Tag puts through
// PutThrottled/PutRange that would push live bytes plus outstanding
// reservations past the budget are deferred and admitted as get-count
// garbage collection frees items; deferred tags are also held back until
// the declared gets of their prescribed steps are present, so the budget is
// spent on steps that can run rather than park. Sizes come from each
// collection's WithSizeOf hint (collections without a hint occupy zero
// accounted bytes) plus the WithTagBytes reservations of throttled puts.
// The bound is strict while it is feasible: PeakLiveBytes never exceeds the
// limit as long as the graph can make progress within it. If the graph goes
// idle with puts still deferred — the budget can never clear — the runtime
// force-admits the oldest runnable put, records a BackpressureStall in
// Stats, and reports the first such event through
// Hooks.OnBackpressureStall: the run degrades past the bound instead of
// deadlocking. Call before Run.
func (g *Graph) WithMemoryLimit(bytes int64) *Graph {
	g.acct.limit = bytes
	return g
}

// MemoryLimit returns the configured live-bytes budget (0 = unbounded).
func (g *Graph) MemoryLimit() int64 { return g.acct.limit }

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
// deferred step instances were still waiting for budget, and the runtime had
// to admit one over budget to preserve liveness. It is the backpressure
// analogue of bench.Check's stall dump: enough state to explain why the
// budget could not clear.
type BackpressureReport struct {
	// LiveItems and LiveBytes are the accountant's state at stall time.
	LiveItems int64
	LiveBytes int64
	// Reserved is the budget committed to admitted-but-unmaterialised work.
	Reserved int64
	// Limit is the configured memory budget.
	Limit int64
	// Pending is the number of deferred instances still waiting for budget.
	Pending int
	// Blocked is the wait-state dump (Graph.Blocked) at stall time: parked
	// and deferred step instances, each with the item it waits for.
	Blocked []string
}

// entry is the non-generic head of a step instance: its read set, the
// countdown of the cells it still waits for, its link in a cell's wait
// list, and — for an instance of a throttled tag put — its place in
// admission. The accountant's entries are these heads; its runnable set
// holds the instances themselves.
type entry struct {
	reads []Dep
	// remaining is two units, the chain's (retired once no read it waits
	// for is still empty) and a sentinel, so the countdown ends at most once
	// and only after the chain has started.
	remaining atomic.Int32
	// state is written under accountant.mu and read without it.
	state atomic.Uint32
	// wnext links the wait list of the cell it is chained on, under that
	// cell's stripe lock.
	wnext waiter
	// cost is the budget a throttled instance reserves at admission.
	cost int64

	// seq is the put order among deferred instances (the waits count when it
	// was deferred); prev and next link the pending list, which is in that
	// order. Guarded by accountant.mu.
	seq        int64
	prev, next *entry
}

// The admission state of an instance. One not put through PutThrottled is
// admitted from its launch. A throttled one waits for its read set, is then
// runnable until admission launches it; admitted while still waiting (forced,
// or flushed by a cancellation) it is a parked instance, launched by the
// put of its last item.
const (
	putAdmitted uint32 = iota
	putWaiting
	putRunnable
)

// freeable reports how many accounted bytes the instance would free on
// completion: the total size of its declared gets for which this read is
// the last. Admission uses it to tell memory-releasing instances from
// growing ones.
func (p *entry) freeable() int64 {
	var n int64
	for _, d := range p.reads {
		n += d.c.freeableBytes()
	}
	return n
}

func bySeq(w waiter, p *entry) int { return cmp.Compare(w.head().seq, p.seq) }

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
// Throttling is asynchronous: an instance of a throttled put that does not
// fit (or whose declared gets are not all present yet) is deferred, not
// blocked — the putter continues immediately, and the instance is admitted
// later. Deferring instead of blocking is what makes throttling safe from
// inside step bodies: a blocked worker goroutine cannot execute the very
// consumers whose completions would free the budget it waits for.
//
// A deferred instance waits on its cells the way any tuned instance does:
// its read set is resolved once, it is chained on the cells still empty,
// and the put of its last missing item moves it to the runnable set instead
// of launching it: an item put costs the instances that read that item, not
// the whole queue. The readiness gate matters as much as the byte check:
// admitting an instance that immediately parks converts budget into a
// reservation nothing can free, and enough of those wedge the graph. Gating
// on readiness keeps the budget working on steps that can actually run,
// complete, and release their inputs — the degraded-parallelism mode the
// memory limit promises.
//
// The pump looks only at runnable entries, oldest put first, and admits the
// ones that fit. Events that cannot change its answer skip it: with nothing
// runnable, only the graph going idle (or a cancellation) needs a pass.
//
// Admission weighs each instance's net memory effect. It is *freeing* when
// its declared gets include enough last-read items (remaining get-count 1)
// to cover its own cost: running it does not grow the live set. Freeing
// instances may fill the budget completely. *Growing* ones must leave
// maxCost of headroom, so that a freeing consumer of the bytes they produce
// always remains admissible. Without that asymmetry the budget fills to
// exactly the limit with items whose consumers each cost one more tag than
// is left — a self-inflicted wedge in which only forced admissions make
// progress.
//
// Liveness: if the graph goes fully idle (no step queued or executing, no
// environment running) while instances are still pending, no free can ever
// land and the budget will never clear — the bound is infeasible for this
// graph and schedule. The pump then force-admits one entry — the oldest
// runnable memory-releasing one, else the oldest runnable, else the oldest —
// records a BackpressureStall, and reports the first such event through
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
	maxCost   int64 // largest throttled cost seen (growing-instance headroom)
	peakItems int64
	peakBytes int64
	freed     int64
	waits     int64
	stalls    int64
	reported  bool // the stall hook fired (at most once per run)

	// head and tail are the pending list: every deferred entry not yet
	// admitted, in put order. runnable is the subset whose countdown reached
	// zero, sorted by seq.
	head, tail *entry
	runnable   []waiter

	// pendingN and runnableN mirror the two sets' sizes for the lock-free
	// checks on the hot put/free/taskDone paths.
	pendingN  atomic.Int64
	runnableN atomic.Int64

	// pumpMu serialises pump passes; repump coalesces triggers that arrive
	// while a pass is running (including reentrant ones from inline step
	// execution inside an admission).
	pumpMu sync.Mutex
	repump atomic.Bool
}

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
// the budget now. Freeing instances (freeable covers cost) may fill it
// completely; growing ones leave maxCost of headroom so a freeing consumer
// is always admissible — unless the budget is empty, in which case there is
// nothing a consumer could free and the headroom would only strand limits
// smaller than two tags. The cell probes behind freeable run only when the
// classification decides. Callers hold a.mu.
func (a *accountant) admissible(p *entry) bool {
	used := a.liveBytes + a.reserved
	total := used + p.cost
	if total > a.limit {
		return false
	}
	return used == 0 || total+a.maxCost <= a.limit || p.freeable() >= p.cost
}

// enqueue takes a throttled instance that has subscribed to its read set,
// n units of its countdown not yet retired. It reports true, the cost
// reserved, when the instance may launch now: nothing is pending ahead of
// it, its declared gets are present and it fits. Otherwise it defers the
// instance, which holds the graph open until admitted, and the caller
// retires the n units. Callers run under a limit.
func (a *accountant) enqueue(p *entry, n int32) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p.cost > a.maxCost {
		a.maxCost = p.cost
	}
	if a.head == nil && p.remaining.Load() == n && a.admissible(p) {
		a.reserved += p.cost
		p.state.Store(putAdmitted)
		return true
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
	// A pending instance holds the graph open: quiescence must wait for
	// every deferred one to be admitted (or flushed by cancellation).
	a.g.outstanding.Add(1)
	return false
}

// ready is called when a deferred instance's countdown ends: a waiting one
// joins the runnable set and ready reports false — its admission launches
// it; one admitted while it waited reports true, to be launched now. It does
// not pump: its caller does, once its own wakeups are out.
func (a *accountant) ready(w waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := w.head()
	if p.state.Load() == putAdmitted {
		return true
	}
	p.state.Store(putRunnable)
	i, _ := slices.BinarySearchFunc(a.runnable, p, bySeq)
	a.runnable = slices.Insert(a.runnable, i, w)
	a.runnableN.Store(int64(len(a.runnable)))
	return false
}

// pump runs admission passes while one could admit something: an entry is
// runnable, or the graph is idle or cancelled with entries pending. TryLock
// plus the repump flag coalesces concurrent and reentrant triggers (an
// admitted instance can run inline, which can free items and re-trigger the
// pump) into the single running pass.
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
func (a *accountant) next() (p *entry, forced bool) {
	if a.g.cancelled.Load() {
		return a.head, false // flush: drain mode retires instances without executing
	}
	for _, w := range a.runnable {
		if p := w.head(); a.admissible(p) {
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
	for _, w := range a.runnable {
		if p := w.head(); p.freeable() >= p.cost {
			return p, true
		}
	}
	if len(a.runnable) > 0 {
		return a.runnable[0].head(), true
	}
	return a.head, true // nothing runnable either: flush in order
}

// drain admits pending entries until none is admissible. Each admission
// releases a.mu before launching the instance, so it can run inline,
// prescribe, and defer more instances without holding the accountant lock.
func (a *accountant) drain() {
	for {
		a.mu.Lock()
		p, forced := a.next()
		if p == nil {
			a.mu.Unlock()
			return
		}
		var w waiter // a runnable instance, which admission launches
		if p.state.Load() == putRunnable {
			i, _ := slices.BinarySearchFunc(a.runnable, p, bySeq)
			w = a.runnable[i]
			// The oldest is the usual pick: drop it without moving the rest
			// (a lone entry goes through Delete, which keeps the capacity).
			if i == 0 && len(a.runnable) > 1 {
				a.runnable[0], a.runnable = nil, a.runnable[1:]
			} else {
				a.runnable = slices.Delete(a.runnable, i, i+1)
			}
			a.runnableN.Store(int64(len(a.runnable)))
		} else {
			// Still waiting: from now on a parked instance, which the put of
			// its last item launches (and a deadlock report names).
			a.g.parked.Add(1)
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
				// names p as deferred.
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
		if w != nil {
			w.launch(true, nil)
		}
		a.g.taskDone() // release the pending hold after the launch
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

// WithMemoryLimit sets a live-bytes budget for the run. Step instances of
// tags put through PutThrottled that would push live bytes plus outstanding
// reservations past the budget are deferred and admitted as get-count
// garbage collection frees items; deferred instances are also held back
// until their declared gets are present, so the budget is spent on steps
// that can run rather than park. Sizes come from each collection's
// WithSizeOf hint (collections without a hint occupy zero accounted bytes)
// plus the WithTagBytes reservations of throttled puts. The bound is strict
// while it is feasible: PeakLiveBytes never exceeds the limit as long as the
// graph can make progress within it. If the graph goes idle with instances
// still deferred — the budget can never clear — the runtime force-admits the
// oldest runnable one, records a BackpressureStall in Stats, and reports the
// first such event through Hooks.OnBackpressureStall: the run degrades past
// the bound instead of deadlocking. Call before Run.
func (g *Graph) WithMemoryLimit(bytes int64) *Graph {
	g.acct.limit = bytes
	return g
}

// MemoryLimit returns the configured live-bytes budget (0 = unbounded).
func (g *Graph) MemoryLimit() int64 { return g.acct.limit }

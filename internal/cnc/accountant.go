package cnc

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// entry is the non-generic head of a step instance: its read set, the
// countdown of the cells it still waits for, its link in a cell's wait list
// and, while a throttled put defers it, its put order.
type entry struct {
	// remaining is two units, the chain's (retired once no read it waits
	// for is still empty) and a sentinel, so the countdown ends at most once
	// and only after the chain has started.
	remaining atomic.Int32
	n         int32 // reads in the read set
	// wnext links the wait list of the cell it is chained on, under that
	// cell's stripe lock, and the collection's free lists once recycled.
	wnext waiter
	// adm is the instance's put order among deferred instances (the waits
	// count when it was deferred; byKey's tie-break) while it waits for
	// admission, set under accountant.mu and read without it; 0 once
	// admitted, and for every instance not put through PutThrottled.
	adm atomic.Int64
	// key is the instance's place in the serial elision's order (childKey),
	// the order admission grows the live set in.
	key uint64
	// The read set: n numbered cells, as their numbers, in ids — or, once a
	// read set held a hashed cell or more than four, (*more)[:n], kept
	// across recycling so it is allocated once.
	ids  [4]uint32
	more *[]Dep
}

// dep returns read i of the read set.
func (p *entry) dep(g *Graph, i int) Dep {
	if p.more != nil {
		return (*p.more)[i]
	}
	return g.numbered(p.ids[i])
}

// setReads stores a resolved read set: as numbers in ids when it can be,
// else in the overflow.
func (p *entry) setReads(ds []Dep) {
	p.n = int32(len(ds))
	if p.more == nil && len(ds) <= len(p.ids) {
		i := 0
		for ; i < len(ds); i++ {
			id, ok := ds[i].c.number()
			if !ok {
				break
			}
			p.ids[i] = id
		}
		if i == len(ds) {
			return
		}
	}
	if p.more == nil {
		p.more = new([]Dep)
	}
	*p.more = append((*p.more)[:0], ds...)
}

// admission is a deferred instance's record in the accountant's sets: the
// instance and the budget it reserves. Its put order is the instance's own
// (entry.adm), so a deferral allocates no record of its own. A deferred
// instance holds one until admission launches it or — forced, or flushed by
// a cancellation, while it still waits — makes it a parked instance,
// launched by the put of its last item. Guarded by accountant.mu.
type admission struct {
	w    waiter
	cost int64
}

// freeable reports how many accounted bytes the instance would free on
// completion: the total size of its declared gets for which this read is
// the last. Admission uses it to tell memory-releasing instances from
// growing ones.
func (p *entry) freeable(g *Graph) int64 {
	var n int64
	for i := range int(p.n) {
		n += p.dep(g, i).c.freeableBytes()
	}
	return n
}

// byKey orders deferred instances by serial-order key, then put order.
func byKey(p, q *entry) int {
	if c := cmp.Compare(p.key, q.key); c != 0 {
		return c
	}
	return cmp.Compare(p.adm.Load(), q.adm.Load())
}

// find returns the index of p's record in s, which is sorted by byKey, or
// where it belongs.
func find(s []admission, p *entry) int {
	i, _ := slices.BinarySearchFunc(s, p, func(r admission, p *entry) int { return byKey(r.w.head(), p) })
	return i
}

// removeAt deletes s[i]. The first element, the usual one, goes without
// moving the rest (a lone one through Delete, which keeps the capacity).
func removeAt(s []admission, i int) []admission {
	if i == 0 && len(s) > 1 {
		s[0] = admission{}
		return s[1:]
	}
	return slices.Delete(s, i, i+1)
}

// childKey returns the key of the idx-th tag an attempt with the given key
// (its first kbits bits in use) puts: the key followed by an
// order-preserving prefix-free code of idx+1 — its length less one in 1
// bits, a 0, then its bits after the leading one. Keys so compare as the
// serial elision's depth-first order: an attempt before the tags it puts,
// each one's subtree before the next. A key out of bits stays its
// parent's, and put order breaks the tie.
func childKey(key uint64, kbits uint8, idx uint64) (uint64, uint8) {
	n := idx + 1
	l := bits.Len64(n)
	if int(kbits)+2*l-1 > 64 {
		return key, kbits
	}
	code := (1<<(l-1)-1)<<l | n&(1<<(l-1)-1)
	return key | code<<(64-int(kbits)-(2*l-1)), kbits + uint8(2*l-1)
}

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
// The pump looks only at runnable entries, in key order — the serial
// elision's depth-first order of puts (childKey), put order among the
// environment's — and admits the ones that fit. Events that cannot change
// its answer skip it: with nothing runnable, only the graph going idle (or
// a cancellation) needs a pass.
//
// Admission weighs each instance's net memory effect. It is *freeing* when
// its declared gets include enough last-read items (remaining get-count 1)
// to cover its own cost: running it does not grow the live set. Freeing
// instances may fill the budget completely, in any order. *Growing* ones
// must leave maxCost of headroom, so that a freeing consumer of the bytes
// they produce always remains admissible. Without that asymmetry the budget
// fills to exactly the limit with items whose consumers each cost one more
// tag than is left — a self-inflicted wedge in which only forced admissions
// make progress. And growing ones are admitted strictly in key order: none
// while an instance before it is still deferred, runnable or waiting for
// its reads. A serial program's dependences all point forward in that
// order, so what the live set holds is what the serial elision holds at
// the same point, plus freeing work not yet done, which can always catch
// up; a budget the serial elision fits in is never wedged. Growing in the
// order instances become runnable would open work far apart in that order,
// whose items stay live until the work between them is done.
//
// Liveness: if the graph goes fully idle (no step queued or executing, no
// environment running) while instances are still pending, no free can ever
// land and the budget will never clear. The pump first lifts the key order:
// any runnable instance that fits is admitted, since a graph whose
// dependences do not follow its keys can leave the first instance in key
// order waiting on a later one. If none fits, the bound is infeasible for
// this graph and schedule, and the pump force-admits one entry — the first
// runnable memory-releasing one, else the first runnable, else the first in
// key order — and counts a BackpressureStall. The run degrades gracefully —
// the footprint exceeds the limit by the minimum needed to restore progress
// — instead of deadlocking or aborting.
type accountant struct {
	g *Graph

	// limit is write-before-Run configuration.
	limit int64

	// pendingN and runnableN mirror the two sets' sizes for the lock-free
	// checks on the hot put/free/taskDone paths; without a limit they stay 0.
	pendingN  atomic.Int64
	runnableN atomic.Int64

	// The live set and its peaks. Without a limit nothing decides on them,
	// so puts and frees change them with atomics alone, the peaks kept by
	// CAS-max; under a limit they change under mu, where admission reads them.
	_                    pad
	liveItems, liveBytes atomic.Int64
	peakItems, peakBytes atomic.Int64
	freed                atomic.Int64
	_                    pad

	mu       sync.Mutex
	reserved int64
	maxCost  int64 // largest throttled cost seen (growing-instance headroom)
	waits    int64
	stalls   int64

	// runnable holds the deferred instances whose countdown reached zero
	// and waiting the rest, both sorted by byKey.
	runnable []admission
	waiting  []admission

	// pumpMu serialises pump passes; repump coalesces triggers that arrive
	// while a pass is running (a concurrent free, put or retirement).
	pumpMu sync.Mutex
	repump atomic.Bool
}

// admitItem charges one put item of the given size. Reserved bytes are
// converted first: the item materialises work whose cost admission already
// committed, so a put of a fully reserved item never raises the total.
func (a *accountant) admitItem(size int64) {
	if a.limit != 0 {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.reserved -= min(a.reserved, size)
	}
	raise(&a.peakItems, a.liveItems.Add(1))
	raise(&a.peakBytes, a.liveBytes.Add(size))
}

// raise lifts peak to v when v is higher. Every value the live counters
// pass through is one an Add returned, so the peaks stay exact.
func raise(peak *atomic.Int64, v int64) {
	for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
	}
}

// lock takes mu under a limit, the only time the live set needs it.
func (a *accountant) lock() {
	if a.limit != 0 {
		a.mu.Lock()
	}
}

func (a *accountant) unlock() {
	if a.limit != 0 {
		a.mu.Unlock()
	}
}

// admissible reports whether p, whose declared gets are all present, fits
// the budget now with cost reserved. Freeing instances (freeable covers cost)
// may fill it completely; growing ones only when grow says it is their turn,
// and leaving maxCost of headroom so a freeing consumer is always
// admissible — unless the budget is empty, in which case there is nothing a
// consumer could free and the headroom would only strand limits smaller
// than two tags. The cell probes behind freeable run only when the
// classification decides. Callers hold a.mu.
func (a *accountant) admissible(p *entry, cost int64, grow bool) bool {
	used := a.liveBytes.Load() + a.reserved
	total := used + cost
	if total > a.limit {
		return false
	}
	return grow && (used == 0 || total+a.maxCost <= a.limit) || p.freeable(a.g) >= cost
}

// enqueue takes a throttled instance that has subscribed to its read set,
// n units of its countdown not yet retired. It reports true, cost reserved,
// when the instance may launch now: nothing is pending ahead of it, its
// declared gets are present and it fits. Otherwise it defers the instance,
// which holds the graph open until admitted, and the caller retires the n
// units. Callers run under a limit.
func (a *accountant) enqueue(w waiter, cost int64, n int32) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cost > a.maxCost {
		a.maxCost = cost
	}
	p := w.head()
	if a.pendingN.Load() == 0 && p.remaining.Load() == n && a.admissible(p, cost, true) {
		a.reserved += cost
		return true
	}
	a.waits++
	p.adm.Store(a.waits)
	a.waiting = slices.Insert(a.waiting, find(a.waiting, p), admission{w, cost})
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
	if p.adm.Load() == 0 {
		return true
	}
	i := find(a.waiting, p)
	r := a.waiting[i]
	a.waiting = removeAt(a.waiting, i)
	a.runnable = slices.Insert(a.runnable, find(a.runnable, p), r)
	a.runnableN.Store(int64(len(a.runnable)))
	return false
}

// pump runs admission passes while one could admit something: an entry is
// runnable, or the graph is idle or cancelled with entries pending. TryLock
// plus the repump flag coalesces concurrent triggers (a worker's free or
// retirement while another goroutine's pass runs) into the single running
// pass.
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

// next picks the instance to admit now: its set (runnable or waiting) and
// index there, or a nil set. Callers hold a.mu.
func (a *accountant) next() (set *[]admission, i int, forced bool) {
	if a.g.cancelled.Load() {
		return a.first(), 0, false // flush: drain mode retires instances without executing
	}
	// The live set grows in key order: a growing instance is its turn only
	// while nothing before it is still deferred — neither a runnable one
	// that did not fit nor one still waiting for its reads.
	grow := true
	for i, r := range a.runnable {
		p := r.w.head()
		if grow && len(a.waiting) > 0 && byKey(a.waiting[0].w.head(), p) < 0 {
			grow = false
		}
		if a.admissible(p, r.cost, grow) {
			return &a.runnable, i, false
		}
		grow = false
	}
	// Nothing fits (or is runnable). If the rest of the graph is idle — every
	// outstanding unit is one of our own pending holds — no free can ever
	// land: force-admit an instance to preserve liveness. Prefer a runnable
	// memory-releasing one so the degraded run tracks the live-set floor
	// instead of replaying the unbounded schedule.
	if a.g.outstanding.Load() > a.pendingN.Load() {
		return nil, 0, false
	}
	// Keys that do not follow a graph's dependences (FW's do not) can leave
	// the first instance in key order waiting on a later one: before forcing
	// anything over the budget, let growth take any runnable instance that
	// fits.
	for i, r := range a.runnable {
		if a.admissible(r.w.head(), r.cost, true) {
			return &a.runnable, i, false
		}
	}
	for i, r := range a.runnable {
		if r.w.head().freeable(a.g) >= r.cost {
			return &a.runnable, i, true
		}
	}
	if len(a.runnable) > 0 {
		return &a.runnable, 0, true
	}
	return a.first(), 0, true // nothing runnable either: flush in key order
}

// first returns the set whose first instance is the first deferred one in
// key order, or nil. Callers hold a.mu.
func (a *accountant) first() *[]admission {
	switch {
	case len(a.runnable) == 0 && len(a.waiting) == 0:
		return nil
	case len(a.runnable) == 0 || len(a.waiting) > 0 && byKey(a.waiting[0].w.head(), a.runnable[0].w.head()) < 0:
		return &a.waiting
	}
	return &a.runnable
}

// drain admits pending instances until none is admissible. Each admission
// releases a.mu before launching the instance, so the dispatch runs without
// the accountant lock.
func (a *accountant) drain() {
	for {
		a.mu.Lock()
		set, i, forced := a.next()
		if set == nil {
			a.mu.Unlock()
			return
		}
		r := (*set)[i]
		*set = removeAt(*set, i)
		launch := set == &a.runnable
		if launch {
			a.runnableN.Store(int64(len(a.runnable)))
		} else {
			// Still waiting: from now on a parked instance, which the put of
			// its last item launches (and a deadlock report names).
			a.g.stats.parked.Add(1)
		}
		a.reserved += r.cost
		if forced {
			a.stalls++
		}
		r.w.head().adm.Store(0)
		a.pendingN.Add(-1)
		a.mu.Unlock()
		if launch {
			r.w.launch(nil)
		}
		a.g.taskDone() // release the pending hold after the launch
	}
}

// free retires one item of the given size and re-triggers admission.
func (a *accountant) free(size int64) { a.shrink(size, 1) }

// refund undoes an admitItem whose put failed (single-assignment violation
// or use-after-free re-put): the item never became live.
func (a *accountant) refund(size int64) { a.shrink(size, 0) }

// shrink takes one item of the given size out of the live set, counting
// freed frees, and re-triggers admission.
func (a *accountant) shrink(size, freed int64) {
	a.lock()
	a.liveItems.Add(-1)
	a.liveBytes.Add(-size)
	a.freed.Add(freed)
	a.unlock()
	a.pump()
}

// retired is a retirement's admission opportunity while deferred throttled
// instances are pending: the step's releases may have turned one from
// growing to freeing, and the retirement that leaves only pending holds
// outstanding is what triggers the idle-graph liveness check. pump tells
// the two from the common no-op.
func (a *accountant) retired() {
	if a.pendingN.Load() > 0 {
		a.pump()
	}
}

// memStats is the accountant's contribution to Stats.
type memStats struct {
	liveItems, peakItems, freed int64
	liveBytes, peakBytes        int64
	waits, stalls               int64
}

// snapshot reads the counters; waits and stalls change only under a limit,
// and then under mu.
func (a *accountant) snapshot() memStats {
	a.lock()
	defer a.unlock()
	return memStats{
		liveItems: a.liveItems.Load(), peakItems: a.peakItems.Load(), freed: a.freed.Load(),
		liveBytes: a.liveBytes.Load(), peakBytes: a.peakBytes.Load(),
		waits: a.waits, stalls: a.stalls,
	}
}

// WithMemoryLimit sets a live-bytes budget for the run. Step instances of
// tags put through PutThrottled that would push live bytes plus outstanding
// reservations past the budget are deferred and admitted as get-count
// garbage collection frees items; deferred instances are also held back
// until their declared gets are present, so the budget is spent on steps
// that can run rather than park, and an instance that grows the live set
// waits for every one put before it in the serial elision's order — the
// depth-first order of the puts, by the environment and through attempts'
// bursts — so a budget the serial elision fits in suffices. Sizes come from
// each collection's WithSizeOf hint (collections without a hint occupy zero
// accounted bytes) plus the WithTagBytes reservations of throttled puts. The
// bound is strict while it is feasible: PeakLiveBytes never exceeds the
// limit as long as the graph can make progress within it. If the graph goes
// idle with instances still deferred — the budget can never clear — the
// runtime force-admits the first runnable one in key order and counts a
// BackpressureStall in Stats: the run degrades past the bound instead of
// deadlocking, and Graph.Blocked says what it waited on. Call before Run.
func (g *Graph) WithMemoryLimit(bytes int64) *Graph {
	g.acct.limit = bytes
	return g
}

// MemoryLimit returns the configured live-bytes budget (0 = unbounded).
func (g *Graph) MemoryLimit() int64 { return g.acct.limit }

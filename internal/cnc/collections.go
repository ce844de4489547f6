package cnc

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
)

// StepFunc is the body of a step collection: the computation executed for
// each prescribed tag. It must be written gets-first: perform all item Gets
// before any Put or other side effect, because under Native scheduling the
// runtime executes instances speculatively and re-executes them from scratch
// after a Get of an undeclared item misses, once per missing item. Declared
// reads (WithGets) never miss in the body: the runtime reads them before it
// runs. Returning a non-nil error fails the whole graph.
type StepFunc[T comparable] func(tag T) error

// TuningMode selects how a tuned step collection schedules its instances.
type TuningMode int

const (
	// TunedPrescheduled is the paper's "Tuner-CnC": the read set declared by
	// WithTunedGetsAppend is resolved when the tag is put; if all items are
	// already present the instance runs inline on the putting goroutine,
	// avoiding the scheduler round-trip; otherwise it is scheduled when the
	// last one arrives.
	TunedPrescheduled TuningMode = iota
	// TunedTriggered is the building block of the paper's "Manual-CnC":
	// every instance waits on a countdown of its declared reads and is
	// scheduled (never inline) when the countdown reaches zero.
	TunedTriggered
)

// Dep names one item dependency of a step instance: a reference to the
// write-once cell of one key in one item collection. Construct them with
// ItemCollection.Key, which resolves the cell once; everything that later
// waits on, probes or releases the item goes through the cell without
// another map lookup.
type Dep struct{ c depCell }

// String renders the dependency as "collection[key]".
func (d Dep) String() string { return d.c.String() }

// depCell is the type-erased view of an item cell (*cell[K, V], so the
// interface value is pointer-shaped and a Dep never allocates): what a step
// instance reads, waits on and releases, and throttled admission probes.
type depCell interface {
	String() string
	// probe returns the item's state (a freed one records the use-after-free)
	// and recordGet attributes a read of a present item to the discipline
	// checker, as Get does.
	probe() cellState
	recordGet()
	// subscribe chains w on the item's wait list, to be woken once when the
	// item is put, or returns false when the item is not missing.
	subscribe(w waiter) bool
	// peek returns the item's state, recording nothing.
	peek() cellState
	// release decrements the item's get-count (no-op on collections without
	// one), freeing the value at zero.
	release()
	// freeableBytes is the admission probe that classifies throttled
	// instances as freeing or growing: the item's accounted size when one
	// more release would free it (present, remaining get-count exactly 1),
	// else 0.
	freeableBytes() int64
}

// waiter is a step instance as the item cells and the accountant see it.
// waitState (its label, and its reads after the cell it is chained on) is
// lazy: deadlock reports and Blocked snapshots are the only readers, so the
// common case (the item arrives) never pays the fmt.Sprintf. wake takes the burst of the Put that satisfied the wait (nil
// when unbatched) so a put that wakes many waiters re-dispatches them with
// one queue push. head and launch are the accountant's: the instance's
// non-generic head, and how admission starts a throttled instance whose read
// set is present.
type waiter interface {
	waitState() (label string, later []Dep)
	wake(bu *Burst)
	head() *entry
	launch(inline bool, bu *Burst)
}

// UseAfterFreeError reports a read (or re-put) of an item that get-count
// garbage collection already freed: the declared consumer count was
// exhausted before this access. It is a deterministic graph error — the
// memory contract was violated — never silent corruption, and it is not
// subject to retry (re-reading a freed item fails identically every time).
type UseAfterFreeError struct {
	Collection string
	Key        any
	// Overdraw carries the discipline checker's attribution — which steps
	// consumed the get-count budget and which step over-read — when the
	// graph ran with WithDisciplineCheck; nil otherwise.
	Overdraw error
}

func (e *UseAfterFreeError) Error() string {
	msg := fmt.Sprintf("cnc: use-after-free: item %s[%v] accessed after its get-count reached zero",
		e.Collection, e.Key)
	if e.Overdraw != nil {
		msg += "; " + e.Overdraw.Error()
	}
	return msg
}

// Unwrap exposes the overdraw attribution to errors.As/Is.
func (e *UseAfterFreeError) Unwrap() error { return e.Overdraw }

// StepCollection is a named computation prescribed by one or more tag
// collections.
type StepCollection[T comparable] struct {
	g    *Graph
	meta *stepMeta
	fn   StepFunc[T]

	// getsApp is the append-form read-set declaration (WithGetsAppend); the
	// slice-returning WithGets wraps its callback into this form so the
	// runtime has a single internal representation that composes with
	// runtime-owned buffers. tuned instances wait for their read set before
	// the first attempt (WithTunedGetsAppend).
	getsApp func(T, []Dep) []Dep
	tuned   bool
	mode    TuningMode

	retryMu  sync.Mutex
	attempts map[T]int

	// pool recycles instances, so no launch, dispatch, wait or release
	// allocates in steady state.
	pool sync.Pool
}

// NewStepCollection registers a step collection on g.
func NewStepCollection[T comparable](g *Graph, name string, fn StepFunc[T]) *StepCollection[T] {
	meta := &stepMeta{name: name}
	g.structMu.Lock()
	g.steps = append(g.steps, meta)
	g.structMu.Unlock()
	return &StepCollection[T]{g: g, meta: meta, fn: fn}
}

// WithGets declares the exact per-tag read set of the step. A declared read
// is a required input: the runtime resolves the read set to cells once per
// instance and, before each attempt's body runs, reads every item itself as
// Get would (use-after-free check, discipline record). If one is missing
// the attempt aborts before the body starts, and the instance waits on the
// declared items not yet present, one at a time, and is re-executed once;
// an item declared but never put is a deadlock naming that item.
//
// When an instance completes successfully, the runtime releases (decrements
// the get-count of) every item the declaration names, freeing items whose
// count reaches zero. The declaration must cover every item the step reads
// and nothing else — a missing entry leaks the item (Stats.LiveItems stays
// nonzero), an extra entry trips a deterministic over-release error.
//
// Releases fire only on successful completion, never per read. This is what
// makes get-counts compose with the rest of the runtime: an aborted attempt,
// a failed one and a drained (cancelled) instance release nothing, and a
// retried re-execution (Graph.SetRetry) decrements exactly once. It also
// means the declaration is incompatible with steps that complete
// successfully *without* consuming their reads — the non-blocking variant's
// TryGet-miss-and-re-put-own-tag pattern retires a successful instance per
// poll, so non-blocking step collections must not declare gets.
func (sc *StepCollection[T]) WithGets(fn func(T) []Dep) *StepCollection[T] {
	return sc.WithGetsAppend(func(tag T, buf []Dep) []Dep {
		return append(buf, fn(tag)...)
	})
}

// WithGetsAppend is the allocation-free form of WithGets: the callback
// appends the tag's read set to a runtime-owned buffer and returns it. The
// buffer is only valid for the duration of the call.
func (sc *StepCollection[T]) WithGetsAppend(fn func(T, []Dep) []Dep) *StepCollection[T] {
	sc.getsApp = fn
	sc.g.structMu.Lock()
	sc.meta.releases = true
	sc.g.structMu.Unlock()
	return sc
}

// WithTunedGetsAppend declares fn as the read set (WithGetsAppend) and
// tunes the step with mode: an instance waits for its whole read set when
// its tag is put, and never runs speculatively. The runtime resolves fn
// once per instance.
func (sc *StepCollection[T]) WithTunedGetsAppend(mode TuningMode, fn func(T, []Dep) []Dep) *StepCollection[T] {
	sc.WithGetsAppend(fn)
	sc.tuned, sc.mode = true, mode
	return sc
}

// Consumes records, for documentation and Describe output, that the step
// reads from the given item collection (cf. the consumes declarations of the
// paper's Listing 4). It has no scheduling effect.
func (sc *StepCollection[T]) Consumes(ic Named) *StepCollection[T] {
	sc.g.structMu.Lock()
	sc.meta.consumes = append(sc.meta.consumes, ic.CollectionName())
	sc.g.structMu.Unlock()
	return sc
}

// Produces records that the step writes to the given item collection.
// Like Consumes it is declarative only.
func (sc *StepCollection[T]) Produces(ic Named) *StepCollection[T] {
	sc.g.structMu.Lock()
	sc.meta.produces = append(sc.meta.produces, ic.CollectionName())
	sc.g.structMu.Unlock()
	return sc
}

// Named is any collection with a name; used by the declarative graph
// description methods.
type Named interface{ CollectionName() string }

// CollectionName returns the step collection's name.
func (sc *StepCollection[T]) CollectionName() string { return sc.meta.name }

// instance is one step instance from launch to release, pooled per step
// collection. It is the exec.Unit the lanes run, the waiter chained on the
// first cell it still misses, the owner of its read set — resolved to cells
// once (stored inline up to four), then read before each attempt, waited on
// and released through those cells — and, launched by a throttled put, the
// accountant's entry. An instance on a wait list is always live — it is
// recycled only after its last attempt — which is what makes the lazy
// waitState safe for concurrent deadlock reports.
type instance[T comparable] struct {
	entry
	sc       *StepCollection[T]
	tag      T
	buf      [4]Dep
	resume   int32 // the read a wake continues the chain from
	resolved bool  // reads holds the declared read set
	present  bool  // every read is present, or the instance waits for it
	requeue  bool  // waiting after an abort, not at launch
}

func (sc *StepCollection[T]) acquire(tag T) *instance[T] {
	in, _ := sc.pool.Get().(*instance[T])
	if in == nil {
		in = &instance[T]{}
		in.reads = in.buf[:0]
	}
	in.sc, in.tag = sc, tag
	return in
}

// instance launches the step instance for tag: untuned it is dispatched at
// once (into bu when one is open); tuned it first waits for its read set,
// and with nothing missing a prescheduled one runs inline.
func (sc *StepCollection[T]) instance(tag T, bu *Burst) {
	in := sc.acquire(tag)
	if !sc.tuned {
		in.dispatch(bu)
		return
	}
	in.resolve()
	in.present = true
	in.wait(0, nil, false, bu)
}

// throttle launches the instance for a tag put through PutThrottled under a
// memory limit. Tuned or not, it waits for its read set and then for its
// turn, reserving cost when admitted; admission launches it exactly as
// instance would.
func (sc *StepCollection[T]) throttle(tag T, cost int64, bu *Burst) {
	in := sc.acquire(tag)
	in.resolve()
	in.present = sc.tuned // untuned, the read before the body still probes
	in.cost = cost
	in.state.Store(putWaiting)
	n := in.subscribe(0, nil)
	if sc.g.acct.enqueue(&in.entry, n) {
		in.launch(true, bu)
		return
	}
	in.arrive(n, false, bu)
	sc.g.acct.pump()
}

func (in *instance[T]) resolve() {
	if !in.resolved && in.sc.getsApp != nil {
		in.reads = in.sc.getsApp(in.tag, in.reads)
	}
	in.resolved = true
}

// dispatch queues the next attempt, into bu when one is open.
func (in *instance[T]) dispatch(bu *Burst) {
	if bu == nil || bu.g == nil {
		in.sc.g.schedule(in)
		return
	}
	bu.add(in.sc.g, in)
}

func (in *instance[T]) waitState() (string, []Dep) {
	label := fmt.Sprintf("%s@%v", in.sc.meta.name, in.tag)
	if in.state.Load() != putAdmitted {
		label += " (deferred)"
	}
	return label, in.reads[in.resume:]
}

// wake continues the chain along the reads after the cell that was put,
// retiring its unit once none is still empty.
func (in *instance[T]) wake(bu *Burst) {
	if !in.chain(int(in.resume)) {
		in.arrive(1, false, bu)
	}
}

func (in *instance[T]) head() *entry { return &in.entry }

// wait parks the instance until none of its reads from index i on is still
// empty — or, given, until the cell an undeclared Get missed is put — then
// dispatches it again after an abort (requeue) or launches it.
func (in *instance[T]) wait(i int, missed depCell, requeue bool, bu *Burst) {
	in.sc.g.parked.Add(1)
	in.requeue = requeue
	in.arrive(in.subscribe(i, missed), !requeue, bu)
}

// subscribe starts the countdown and chains the instance on missed, if
// given, else on the first of its reads from index i on still empty. It
// returns the units for the caller to retire: the sentinel, plus the
// chain's when nothing is missing — so the countdown ends at once.
func (in *instance[T]) subscribe(i int, missed depCell) int32 {
	in.remaining.Store(2)
	if missed != nil {
		in.resume = int32(len(in.reads)) // the declared reads are present
		if missed.subscribe(in) {
			return 1
		}
	} else if in.chain(i) {
		return 1
	}
	return 2
}

// chain puts the instance on the wait list of the first of its reads from
// index i on still empty, reporting false when none is. resume is written
// before each subscribe, whose cell lock publishes it to the put that
// wakes the instance.
func (in *instance[T]) chain(i int) bool {
	for ; i < len(in.reads); i++ {
		in.resume = int32(i + 1)
		if in.reads[i].c.subscribe(in) {
			return true
		}
	}
	return false
}

// arrive retires n units of the countdown and, on the last, launches the
// instance — or, throttled and not yet admitted, hands it to the accountant,
// which launches it; inline marks the sentinel of a launch at the tag put.
func (in *instance[T]) arrive(n int32, inline bool, bu *Burst) {
	if in.remaining.Add(-n) != 0 {
		return
	}
	g := in.sc.g
	if in.state.Load() != putAdmitted && !g.acct.ready(in) {
		return
	}
	g.parked.Add(-1)
	in.launch(inline, bu)
}

// launch starts the instance once nothing it waits for is missing: a
// requeue after an abort, or an untuned instance, is dispatched; a tuned one
// launched at its tag put runs inline if prescheduled, and any other tuned
// launch is triggered by its last item.
func (in *instance[T]) launch(inline bool, bu *Burst) {
	sc := in.sc
	g := sc.g
	switch {
	case in.requeue:
		g.stats.requeues.Add(1)
	case !sc.tuned:
	case inline && sc.mode == TunedPrescheduled:
		g.stats.inline.Add(1)
		g.outstanding.Add(1)
		in.Run(0)
		return
	default:
		g.stats.triggered.Add(1)
	}
	in.dispatch(bu)
}

// Run executes one (possibly speculative) attempt of the instance.
func (in *instance[T]) Run(int) {
	sc, tag := in.sc, in.tag
	g := sc.g
	defer g.taskDone()
	// Cooperative cancellation: a cancelled graph drains dispatched work
	// without running it, so RunContext returns as soon as the queue and
	// the in-flight step bodies retire.
	if g.cancelled.Load() {
		in.recycle()
		return
	}
	g.stats.started.Add(1)
	if dc := g.discipline; dc != nil {
		// Attribute every put/get/release the attempt issues — including those
		// of nested inline runs, which push their own label — to this
		// instance.
		exit := dc.Enter(fmt.Sprintf("%s@%v", sc.meta.name, tag))
		defer exit()
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if missed, ok := r.(depCell); ok {
			// A Get of an undeclared item missed (the panic value is its
			// cell): park on it; its Put re-schedules the instance from
			// scratch, batched with that put's other wakeups.
			g.stats.aborts.Add(1)
			in.wait(0, missed, true, nil)
			return
		}
		if uaf, ok := r.(*UseAfterFreeError); ok {
			// A Get hit a freed item: a deterministic memory-contract
			// violation, already recorded on the graph. Never retried —
			// every re-execution would read the same freed key.
			g.fail(fmt.Errorf("cnc: step %s on tag %v read a freed item: %w", sc.meta.name, tag, uaf))
			in.recycle()
			return
		}
		in.failed(fmt.Errorf("cnc: step %s panicked on tag %v: %v", sc.meta.name, tag, r))
	}()
	if h := g.hooks; h != nil && h.BeforeStep != nil {
		if err := h.BeforeStep(sc.meta.name, tag); err != nil {
			in.failed(fmt.Errorf("cnc: step %s failed on tag %v: %w", sc.meta.name, tag, err))
			return
		}
	}
	if !in.read() {
		return
	}
	if err := sc.fn(tag); err != nil {
		in.failed(fmt.Errorf("cnc: step %s failed on tag %v: %w", sc.meta.name, tag, err))
		return
	}
	// Successful completion: release the read set exactly once, however
	// many aborted or retried attempts preceded this one.
	for _, d := range in.reads {
		d.c.release()
	}
	g.stats.done.Add(1)
	in.recycle()
}

// read reads the declared read set before the body runs, reporting whether
// the body may run. A missing item aborts the attempt: the instance waits on
// it and each later read still empty, and is requeued once all are put. A
// freed item fails the attempt, never retried — the graph has failed.
func (in *instance[T]) read() bool {
	in.resolve()
	if !in.present {
		for i, d := range in.reads {
			switch d.c.probe() {
			case cellEmpty:
				in.sc.g.stats.aborts.Add(1)
				in.present = true // by the time the requeue runs
				in.wait(i, nil, true, nil)
				return false
			case cellFreed:
				in.recycle()
				return false
			}
		}
		in.present = true
	}
	if in.sc.g.discipline != nil {
		for _, d := range in.reads {
			d.c.recordGet()
		}
	}
	return true
}

// failed handles one failed attempt: re-dispatch while the instance has
// retry budget left (see Graph.SetRetry for why re-execution is sound),
// otherwise record the error on the graph. The re-dispatch adds outstanding
// work before the current attempt retires its own unit, so the graph cannot
// quiesce in between.
func (in *instance[T]) failed(err error) {
	sc := in.sc
	if sc.takeRetry(in.tag) {
		sc.g.stats.retries.Add(1)
		in.dispatch(nil)
		return
	}
	sc.g.fail(err)
	in.recycle()
}

func (in *instance[T]) recycle() {
	sc := in.sc
	clear(in.reads[:cap(in.reads)])
	var zero T
	in.sc, in.tag, in.reads = nil, zero, in.reads[:0]
	in.resolved, in.present, in.requeue = false, false, false
	sc.pool.Put(in)
}

// takeRetry consumes one unit of tag's retry budget (Graph.SetRetry),
// reporting false when it is exhausted.
func (sc *StepCollection[T]) takeRetry(tag T) bool {
	limit := sc.g.retry
	if limit <= 0 {
		return false
	}
	sc.retryMu.Lock()
	defer sc.retryMu.Unlock()
	if sc.attempts == nil {
		sc.attempts = make(map[T]int)
	}
	if sc.attempts[tag] >= limit {
		return false
	}
	sc.attempts[tag]++
	return true
}

// TagCollection is a control collection: putting a tag creates an instance
// of every prescribed step collection.
type TagCollection[T comparable] struct {
	g    *Graph
	name string
	meta *tagMeta

	tagBytes func(T) int

	// prescribed is a copy-on-write snapshot (Prescribe replaces it under
	// mu) so the hot Put path reads it with one atomic load instead of a
	// lock round-trip.
	prescribed atomic.Pointer[[]*StepCollection[T]]

	mu      sync.Mutex
	memoize bool
	seen    map[T]struct{}
}

// NewTagCollection registers a tag collection on g. When memoize is true the
// collection deduplicates tags, as Intel CnC's default tag memoization does:
// re-putting a tag that was already put is a no-op.
func NewTagCollection[T comparable](g *Graph, name string, memoize bool) *TagCollection[T] {
	meta := &tagMeta{name: name}
	g.structMu.Lock()
	g.tags = append(g.tags, meta)
	g.structMu.Unlock()
	tc := &TagCollection[T]{g: g, name: name, meta: meta, memoize: memoize}
	if memoize {
		tc.seen = make(map[T]struct{})
	}
	return tc
}

// CollectionName returns the tag collection's name.
func (tc *TagCollection[T]) CollectionName() string { return tc.name }

// Prescribe attaches a step collection: each future tag put creates one
// instance of it. Record the relationship before Run.
func (tc *TagCollection[T]) Prescribe(sc *StepCollection[T]) {
	tc.g.structMu.Lock()
	sc.meta.prescribedBy = append(sc.meta.prescribedBy, tc.name)
	tc.g.structMu.Unlock()
	tc.mu.Lock()
	var cur []*StepCollection[T]
	if p := tc.prescribed.Load(); p != nil {
		cur = *p
	}
	next := make([]*StepCollection[T], len(cur)+1)
	copy(next, cur)
	next[len(cur)] = sc
	tc.prescribed.Store(&next)
	tc.mu.Unlock()
}

func (tc *TagCollection[T]) prescribedList() []*StepCollection[T] {
	if p := tc.prescribed.Load(); p != nil {
		return *p
	}
	return nil
}

// Put puts a tag, creating an instance of every prescribed step collection.
// It may be called from the environment function or from inside steps.
func (tc *TagCollection[T]) Put(tag T) { tc.PutInto(tag, nil) }

// PutInto is Put with batched dispatch: instances whose dependencies are
// already satisfied are appended to bu instead of being pushed (and waking
// a worker) one at a time; they hit the queue when the burst flushes. The
// semantics are otherwise exactly Put's — memoization, hooks and statistics
// all apply, and outstanding-work accounting happens immediately, so the
// graph cannot quiesce while the burst is open.
func (tc *TagCollection[T]) PutInto(tag T, bu *Burst) {
	if !tc.accept(tag) {
		return
	}
	for _, sc := range tc.prescribedList() {
		sc.instance(tag, bu)
	}
}

// accept is the prologue of every tag put — the running check, the DropTag
// hook, memoization and the TagsPut count — reporting whether the tag
// prescribes instances.
func (tc *TagCollection[T]) accept(tag T) bool {
	tc.g.checkRunning()
	if h := tc.g.hooks; h != nil && h.DropTag != nil && h.DropTag(tc.name, tag) {
		return false // injected fault: the tag is lost before memoization sees it
	}
	if tc.memoize {
		tc.mu.Lock()
		_, dup := tc.seen[tag]
		tc.seen[tag] = struct{}{}
		tc.mu.Unlock()
		if dup {
			return false
		}
	}
	tc.g.stats.tagsPut.Add(1)
	return true
}

// WithTagBytes declares how many bytes of live memory a tag put through
// PutThrottled will eventually occupy (typically the size of the item its
// base-case step puts; 0 for tags that only expand control flow). Under a
// memory limit, PutThrottled reserves that budget at admission and item
// puts convert reservations to live bytes as the data materialises — so
// backpressure paces the environment on the memory its puts *commit to*,
// not only on items already produced. Declare before Run.
func (tc *TagCollection[T]) WithTagBytes(fn func(T) int) *TagCollection[T] {
	tc.tagBytes = fn
	tc.g.structMu.Lock()
	tc.meta.tagBytes = true
	tc.g.structMu.Unlock()
	return tc
}

// PutThrottled is Put with memory backpressure. Under Graph.WithMemoryLimit,
// a tag with a nonzero WithTagBytes cost passes Put's checks at once —
// hooks, memoization, statistics — and then each instance it prescribes
// waits for its declared read set and for its turn: the first reserves the
// cost when admission finds it fits, and admission launches each exactly as
// Put would. The call itself never blocks, so steps and environments can put
// through it freely; the graph stays open until every deferred instance is
// admitted. Without a limit (or for tags with zero declared cost) it is
// exactly Put. See WithMemoryLimit for the degrade-and-report behaviour when
// the budget can never clear.
func (tc *TagCollection[T]) PutThrottled(tag T) { tc.PutThrottledInto(tag, nil) }

// PutThrottledInto is PutThrottled with batched dispatch: instances admitted
// immediately (no memory limit, or zero declared cost, or nothing deferred
// ahead, inputs present and budget available) go through bu exactly like
// PutInto's; a deferred one is launched later through the unbatched path,
// since its admission time is not under the putter's control.
func (tc *TagCollection[T]) PutThrottledInto(tag T, bu *Burst) {
	var cost int64
	if tc.g.acct.limit > 0 && tc.tagBytes != nil {
		cost = int64(tc.tagBytes(tag))
	}
	if cost == 0 {
		tc.PutInto(tag, bu) // control-only tags occupy no budget and are never deferred
		return
	}
	if !tc.accept(tag) {
		return
	}
	for _, sc := range tc.prescribedList() {
		sc.throttle(tag, cost, bu)
		cost = 0 // reserved once, on the first instance
	}
}

// itemShards is the stripe count of an ItemCollection's key space (a power
// of two so shard selection is a mask). 16 stripes ≈ 2× the largest worker
// counts the real runs here use, which keeps the probability that two
// concurrent tile operations collide on a stripe low while the per-shard
// constant cost (one small table) stays negligible; see DESIGN.md §3.
const itemShards = 16

// itemShard is one stripe of an ItemCollection: the cells of the keys that
// hash to it, under its own lock. Every collection operation is single-key,
// so puts and gets on different tiles proceed on different stripes without
// serialising.
type itemShard[K comparable, V any] struct {
	mu sync.Mutex
	ic *ItemCollection[K, V]
	// table indexes the cells by slot hash: open addressing, linear
	// probing, at most ¾ full, insert-only (a freed cell is a tombstone).
	table []*cell[K, V]
	cells int // cells in table
	live  int // cells in state present (Len)
	// slab is the chunk new cells are carved from: cells live as long as
	// the table that names them, so allocating them a chunk at a time costs
	// nothing in lifetime and keeps a stripe's cells adjacent in memory.
	slab []cell[K, V]
}

// cellState is the life cycle of a write-once cell: empty (named by a Key
// or a failed Get, not yet put) → present → freed (get-count reached zero).
type cellState uint8

const (
	cellEmpty cellState = iota
	cellPresent
	cellFreed
)

// cell is one item: a write-once value plus its state, its live get-count
// and the instances waiting for it. Consumers hold the cell (through Dep),
// not the key, so waiting, probing and releasing cost a lock and no lookup.
// All fields are guarded by sh.mu. A freed cell stays in the table as the
// tombstone that turns later accesses into deterministic use-after-free
// errors, but drops its value, so get-count GC still frees real memory.
type cell[K comparable, V any] struct {
	sh        *itemShard[K, V]
	key       K
	val       V
	state     cellState
	hash      uint32 // the high half of key's hash: its slot in sh.table
	remaining int    // live get-count; 0 on a present cell = un-counted (pinned)
	waiters   waiter // the chain's head, linked through entry.wnext
}

// ItemCollection is a single-assignment associative data collection.
type ItemCollection[K comparable, V any] struct {
	g    *Graph
	name string
	meta *itemMeta

	// getCount and sizeOf are write-before-Run declarations.
	getCount func(K) int
	sizeOf   func(K) int

	puts atomic.Uint64

	hashSeed maphash.Seed
	shards   [itemShards]itemShard[K, V]
}

// NewItemCollection registers an item collection on g.
func NewItemCollection[K comparable, V any](g *Graph, name string) *ItemCollection[K, V] {
	meta := &itemMeta{name: name}
	ic := &ItemCollection[K, V]{
		g:        g,
		name:     name,
		meta:     meta,
		hashSeed: maphash.MakeSeed(),
	}
	for i := range ic.shards {
		ic.shards[i].ic = ic
	}
	g.structMu.Lock()
	g.items = append(g.items, meta)
	g.structMu.Unlock()
	g.registerReporter(ic)
	return ic
}

// shardOf hashes k once: the low bits pick its stripe, the high half is its
// slot hash in the stripe's table.
func (ic *ItemCollection[K, V]) shardOf(k K) (*itemShard[K, V], uint32) {
	h := maphash.Comparable(ic.hashSeed, k)
	return &ic.shards[h&(itemShards-1)], uint32(h >> 32)
}

// cellOf returns k's cell, whose slot hash is h, creating it empty when the
// key is new. Callers hold sh.mu.
func (sh *itemShard[K, V]) cellOf(k K, h uint32) *cell[K, V] {
	if 4*(sh.cells+1) > 3*len(sh.table) {
		sh.grow()
	}
	i := sh.slot(k, h)
	if c := sh.table[i]; c != nil {
		return c
	}
	if len(sh.slab) == cap(sh.slab) {
		sh.slab = make([]cell[K, V], 0, min(max(sh.cells, 4), 64))
	}
	sh.slab = append(sh.slab, cell[K, V]{sh: sh, key: k, hash: h})
	c := &sh.slab[len(sh.slab)-1]
	sh.table[i] = c
	sh.cells++
	return c
}

// slot probes the table for k, whose slot hash is h: the index of its cell,
// or of the free slot where that belongs.
func (sh *itemShard[K, V]) slot(k K, h uint32) uint32 {
	mask := uint32(len(sh.table) - 1)
	i := h & mask
	for c := sh.table[i]; c != nil && (c.hash != h || c.key != k); c = sh.table[i] {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table (the first has 8 slots) and re-slots every cell.
func (sh *itemShard[K, V]) grow() {
	old := sh.table
	sh.table = make([]*cell[K, V], max(2*len(old), 8))
	for _, c := range old {
		if c != nil {
			sh.table[sh.slot(c.key, c.hash)] = c
		}
	}
}

// WithGetCount declares each item's consumer count — Intel CnC's get-count
// tuner. The runtime reference-counts every item: fn(k) is the number of
// release operations (StepCollection.WithGets entries of successfully
// completing instances) the item will receive, and when the count reaches
// zero the value is freed. A count of 0 frees the item as soon as it is
// put. Any access after the free — Get, TryGet, a tuned dependency
// subscription, or a re-put — fails the graph with a deterministic
// UseAfterFreeError; releasing a freed item reports an over-release
// (declared count too low), while a too-high count surfaces as
// Stats.LiveItems > 0 after quiesce. Declare before Run.
func (ic *ItemCollection[K, V]) WithGetCount(fn func(K) int) *ItemCollection[K, V] {
	ic.getCount = fn
	ic.g.structMu.Lock()
	ic.meta.getCount = true
	ic.g.hasGetCounts = true
	ic.g.structMu.Unlock()
	return ic
}

// WithSizeOf declares the accountant's byte-size hint for items of this
// collection (e.g. base² × 8 for a tile of float64s synchronised through a
// bool item). Collections without a hint occupy zero accounted bytes —
// their items still count toward LiveItems, but not toward the
// WithMemoryLimit budget. fn must be pure: it is re-evaluated at free time.
// Declare before Run.
func (ic *ItemCollection[K, V]) WithSizeOf(fn func(K) int) *ItemCollection[K, V] {
	ic.sizeOf = fn
	ic.g.structMu.Lock()
	ic.meta.sizeOf = true
	ic.g.structMu.Unlock()
	return ic
}

// Puts returns the number of successful puts into the collection. Unlike
// Len it is unaffected by get-count garbage collection, so it keeps
// reporting the task census after items are freed.
func (ic *ItemCollection[K, V]) Puts() uint64 { return ic.puts.Load() }

func (ic *ItemCollection[K, V]) sizeBytes(k K) int64 {
	if ic.sizeOf == nil {
		return 0
	}
	return int64(ic.sizeOf(k))
}

// CollectionName returns the item collection's name.
func (ic *ItemCollection[K, V]) CollectionName() string { return ic.name }

// Key returns a Dep referring to item k of this collection, for read-set
// declarations (WithGets). It resolves k's cell — creating it empty if the
// key has not been seen — so it is safe to call from running steps, and the
// Dep stays valid for the whole run.
func (ic *ItemCollection[K, V]) Key(k K) Dep {
	sh, h := ic.shardOf(k)
	sh.mu.Lock()
	c := sh.cellOf(k, h)
	sh.mu.Unlock()
	return Dep{c}
}

// Put stores the item under key k and wakes every step instance parked on
// it. Re-putting a key — freed or not — violates CnC's dynamic single
// assignment rule and fails the graph. Under a memory limit the put waits
// for byte budget (see Graph.WithMemoryLimit) before storing.
func (ic *ItemCollection[K, V]) Put(k K, v V) {
	ic.g.checkRunning()
	if h := ic.g.hooks; h != nil && h.BeforeItemPut != nil {
		h.BeforeItemPut(ic.name, k)
	}
	size := ic.sizeBytes(k)
	// Admission before the shard lock: the budget wait must not block
	// other gets/puts/frees on this collection (frees are what clear it).
	ic.g.acct.admitItem(size)
	sh, h := ic.shardOf(k)
	sh.mu.Lock()
	c := sh.cellOf(k, h)
	if c.state != cellEmpty {
		wasFreed := c.state == cellFreed
		sh.mu.Unlock()
		ic.g.acct.refund(size)
		ic.g.fail(ic.doublePutError(k, v, wasFreed))
		return
	}
	c.val, c.state = v, cellPresent
	sh.live++
	freeNow := false
	declared := -1
	if ic.getCount != nil {
		declared = ic.getCount(k)
		switch {
		case declared < 0:
			// Leave the item live (un-counted) and fail: a negative count
			// is a declaration bug, not a freeing instruction.
			ic.g.fail(fmt.Errorf("cnc: item %s[%v] declared negative get-count %d", ic.name, k, declared))
		case declared == 0:
			// Declared consumer-free: reclaim immediately. Parked waiters are
			// still woken — their re-read then reports use-after-free, which is
			// the deterministic surface of a get-count declared too low.
			freeNow = true
		default:
			c.remaining = declared
		}
	}
	if dc := ic.g.discipline; dc != nil {
		// Still under the shard lock: a second writer that finds this cell
		// present must also find its first writer in the checker's ledger.
		dc.RecordPut(ic.name, k, declared, fmt.Sprint(v))
	}
	w := c.waiters // detach the chain
	c.waiters = nil
	if freeNow {
		c.free()
	}
	sh.mu.Unlock()
	ic.g.stats.itemsPut.Add(1)
	ic.puts.Add(1)
	if freeNow {
		ic.g.acct.free(size)
	}
	// Mirror to the external backend before any waiter is woken, so the
	// backend receives an item before the items computed from it (see
	// ItemBackend). (The backend check sits here so the common path does
	// not box k and v.)
	if ic.g.backend != nil {
		ic.g.backendPut(ic.name, k, v)
	}
	// Coalesce the wakeups in a burst: every waiter this put satisfies
	// lands on the queue in one batch with a single signalling pass,
	// instead of one push + one worker wake per waiter. (A lone waiter
	// skips it — a direct push is exactly as cheap.)
	var bu *Burst
	if w != nil && w.head().wnext != nil {
		bu = ic.g.NewBurst()
	}
	for w != nil {
		// Read the link first: the wake may chain w on its next cell.
		next := w.head().wnext
		w.wake(bu)
		w = next
	}
	if bu != nil {
		bu.Flush()
	}
	// The wakes above may have made deferred throttled instances runnable.
	if ic.g.acct.pendingN.Load() > 0 {
		ic.g.acct.pump()
	}
}

// doublePutError builds the single-assignment violation of a second put of
// k, attributed by the discipline checker when one is installed.
func (ic *ItemCollection[K, V]) doublePutError(k K, v V, wasFreed bool) error {
	dc := ic.g.discipline
	if wasFreed {
		err := fmt.Errorf("cnc: single-assignment violation: item %s[%v] re-put after its get-count freed it: %w",
			ic.name, k, &UseAfterFreeError{Collection: ic.name, Key: k})
		if dc != nil {
			err = fmt.Errorf("%v; %w", dc.DoublePut(ic.name, k, fmt.Sprint(v)), err)
		}
		return err
	}
	if dc != nil {
		// The checker names both writers and whether the values differ.
		return dc.DoublePut(ic.name, k, fmt.Sprint(v))
	}
	return fmt.Errorf("cnc: single-assignment violation: item %s[%v] put twice", ic.name, k)
}

// free turns a present cell into its tombstone, dropping the value. Callers
// hold sh.mu and charge the accountant after unlocking.
func (c *cell[K, V]) free() {
	var zero V
	c.val, c.state, c.remaining = zero, cellFreed, 0
	c.sh.live--
}

// useAfterFree records (and returns) the deterministic error of touching
// this cell after its get-count freed it.
func (c *cell[K, V]) useAfterFree() *UseAfterFreeError {
	ic := c.sh.ic
	err := &UseAfterFreeError{Collection: ic.name, Key: c.key}
	if dc := ic.g.discipline; dc != nil {
		err.Overdraw = dc.Overdraw(ic.name, c.key, "get")
	}
	ic.g.fail(err)
	return err
}

func (c *cell[K, V]) String() string { return fmt.Sprintf("%s[%v]", c.sh.ic.name, c.key) }

// release implements depCell for StepCollection.WithGets; on collections
// without a get-count it is a no-op, so a shared read-set declaration can
// span counted and uncounted collections.
func (c *cell[K, V]) release() {
	sh := c.sh
	ic := sh.ic
	if ic.getCount == nil {
		return
	}
	sh.mu.Lock()
	switch {
	case c.state == cellFreed:
		sh.mu.Unlock()
		err := fmt.Errorf("cnc: over-release of item %v: get-count reached zero before its last declared reader (declared count too low)", c)
		if dc := ic.g.discipline; dc != nil {
			err = fmt.Errorf("%v; %w", dc.Overdraw(ic.name, c.key, "release"), err)
		}
		ic.g.fail(err)
		return
	case c.state == cellEmpty:
		sh.mu.Unlock()
		ic.g.fail(fmt.Errorf("cnc: release of item %v that was never put", c))
		return
	case c.remaining == 0:
		// Present but un-counted: the negative-count error path left it
		// pinned; the graph already failed.
		sh.mu.Unlock()
		return
	}
	if dc := ic.g.discipline; dc != nil {
		dc.RecordRelease(ic.name, c.key)
	}
	if c.remaining--; c.remaining > 0 {
		sh.mu.Unlock()
		return
	}
	c.free()
	sh.mu.Unlock()
	ic.g.acct.free(ic.sizeBytes(c.key))
}

func (c *cell[K, V]) freeableBytes() int64 {
	c.sh.mu.Lock()
	defer c.sh.mu.Unlock()
	if c.state != cellPresent || c.remaining != 1 {
		return 0
	}
	return c.sh.ic.sizeBytes(c.key)
}

// subscribe is the one place an instance is put on a wait list.
func (c *cell[K, V]) subscribe(w waiter) bool {
	c.sh.mu.Lock()
	state := c.state
	if state == cellEmpty {
		w.head().wnext, c.waiters = c.waiters, w
	}
	c.sh.mu.Unlock()
	if state == cellFreed {
		// An instance declared a dependency on an already-freed item: the
		// get-count missed this consumer. Fail deterministically and report
		// the dependency as satisfied so the countdown completes and the graph
		// quiesces instead of parking — or deferring — forever.
		c.useAfterFree()
	}
	return state == cellEmpty
}

// Get returns the item stored under k, blocking in the CnC sense: when the
// item is missing, the calling step instance is aborted, parked on it and
// re-executed from scratch (a declared read, see StepCollection.WithGets,
// never misses here). Get must only be called from inside a step body.
// Reading an item that get-count garbage collection freed fails the graph
// with a deterministic UseAfterFreeError (the declared count was too low)
// instead of parking forever or returning stale data.
func (ic *ItemCollection[K, V]) Get(k K) V {
	sh, h := ic.shardOf(k)
	sh.mu.Lock()
	c := sh.cellOf(k, h)
	v, state := c.val, c.state
	sh.mu.Unlock()
	switch state {
	case cellEmpty:
		// The abort signal is the missed cell itself: pointer-shaped, so the
		// panic allocates nothing, and the attempt's recover parks on it.
		panic(c)
	case cellFreed:
		panic(c.useAfterFree()) // unwinds the step like a failed Get, but is never retried
	}
	c.recordGet()
	return v
}

// recordGet attributes a read of the present cell to the discipline
// checker, if one is installed. The nil check sits here so the common path
// does not box the key.
func (c *cell[K, V]) recordGet() {
	ic := c.sh.ic
	if dc := ic.g.discipline; dc != nil {
		dc.RecordGet(ic.name, c.key)
	}
}

func (c *cell[K, V]) peek() cellState {
	c.sh.mu.Lock()
	defer c.sh.mu.Unlock()
	return c.state
}

func (c *cell[K, V]) probe() cellState {
	state := c.peek()
	if state == cellFreed {
		c.useAfterFree()
	}
	return state
}

// TryGet is the non-blocking get (the paper's §IV-B ablation): it reports
// whether the item is present without aborting the step. Polling a freed
// item fails the graph (deterministic use-after-free, like Get) and reports
// the item as absent.
func (ic *ItemCollection[K, V]) TryGet(k K) (V, bool) {
	sh, h := ic.shardOf(k)
	sh.mu.Lock()
	c := sh.cellOf(k, h)
	v, state := c.val, c.state // the zero V unless present
	sh.mu.Unlock()
	if state == cellFreed {
		c.useAfterFree()
	} else if state == cellPresent {
		c.recordGet()
	}
	return v, state == cellPresent
}

// Len returns the number of items currently live — put and not yet freed
// by get-count garbage collection. For the total ever put, use Puts.
func (ic *ItemCollection[K, V]) Len() int {
	n := 0
	for i := range ic.shards {
		sh := &ic.shards[i]
		sh.mu.Lock()
		n += sh.live
		sh.mu.Unlock()
	}
	return n
}

// blockedInstances enumerates parked and deferred instances for deadlock
// reports: one line per (waiter, still-missing item) pair — the cell it is
// chained on, and each later read still empty, probed after unlocking.
func (ic *ItemCollection[K, V]) blockedInstances() []string {
	var out []string
	type later struct {
		label string
		d     Dep
	}
	var rest []later
	for i := range ic.shards {
		sh := &ic.shards[i]
		sh.mu.Lock()
		for _, c := range sh.table {
			if c == nil {
				continue
			}
			for w := c.waiters; w != nil; w = w.head().wnext {
				label, ds := w.waitState()
				out = append(out, fmt.Sprintf("%s <- %v", label, c))
				for _, d := range ds {
					rest = append(rest, later{label, d})
				}
			}
		}
		sh.mu.Unlock()
	}
	for _, l := range rest {
		if l.d.c.peek() == cellEmpty {
			out = append(out, fmt.Sprintf("%s <- %v", l.label, l.d))
		}
	}
	sort.Strings(out)
	return out
}

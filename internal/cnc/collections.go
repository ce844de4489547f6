package cnc

import (
	"fmt"
	"hash/maphash"
	"slices"
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
	// number is a numbered cell's number (Graph.numbered names it back);
	// false for a hashed cell.
	number() (uint32, bool)
}

// waiter is a step instance as the item cells and the accountant see it.
// waitState (its label, and its reads after the cell it is chained on) is
// lazy: deadlock reports and Blocked snapshots are the only readers, so the
// common case (the item arrives) never pays the fmt.Sprintf. wake takes the
// burst of the Put that satisfied the wait — an attempt's, or nil — so the
// waiters an attempt's put wakes run next on its lane. head and launch are
// the accountant's: the instance's non-generic head, and how admission
// starts a throttled instance whose read set is present.
type waiter interface {
	waitState() (label string, later []Dep)
	wake(bu *Burst)
	head() *entry
	launch(bu *Burst)
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
	body func(T, *Burst) error

	// getsApp is the append-form read-set declaration (WithGetsAppend); the
	// slice-returning WithGets wraps its callback into this form so the
	// runtime has a single internal representation that composes with
	// runtime-owned buffers. tuned instances wait for their read set before
	// the first attempt (WithTunedGetsAppend).
	getsApp func(T, []Dep) []Dep
	tuned   bool

	retryMu  sync.Mutex
	attempts map[T]int

	// Instances are carved from slabs and recycled through free lists
	// linked through entry.wnext, so no launch, dispatch, wait or release
	// allocates in steady state. An attempt's tag put takes from its lane's
	// (lanes[Burst.lane]), and an instance an attempt put is recycled onto
	// the lane it completes on, up to laneFreeMax, with no lock. Otherwise
	// recycle pushes onto spare without a lock, and a put pops free under
	// mu, taking all of spare with one Swap when free runs dry. Completing
	// workers never wait on putters, and with no pop racing a push the
	// stack is ABA-free.
	lanes []laneFree[T]
	mu    sync.Mutex
	free  *instance[T]
	slab  []instance[T]
	spare atomic.Pointer[instance[T]]
}

// laneFreeMax bounds a lane's free list of a step collection, so a lane
// that completes more instances than it puts hoards none.
const laneFreeMax = 32

// laneFree is a lane's free list of a step collection, touched only by the
// attempt on the lane and padded off the other lanes'.
type laneFree[T comparable] struct {
	top *instance[T]
	n   int
	_   pad
}

// NewStepCollection registers a step collection on g.
func NewStepCollection[T comparable](g *Graph, name string, fn StepFunc[T]) *StepCollection[T] {
	return NewStepCollectionInto(g, name, func(tag T, _ *Burst) error { return fn(tag) })
}

// NewStepCollectionInto registers a step collection whose body also gets
// its attempt's Burst. What the body puts into it — tags through
// TagCollection.PutInto, items through ItemCollection.PutInto, whose
// waiters it wakes — runs next on the attempt's own worker, newest first;
// see "Dispatch" in the package comment.
func NewStepCollectionInto[T comparable](g *Graph, name string, body func(T, *Burst) error) *StepCollection[T] {
	meta := &stepMeta{name: name}
	g.structMu.Lock()
	g.steps = append(g.steps, meta)
	g.structMu.Unlock()
	return &StepCollection[T]{g: g, meta: meta, body: body, lanes: make([]laneFree[T], g.workers)}
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
// tunes the step: an instance waits for its whole read set when its tag is
// put, and never runs speculatively. Once nothing it reads is missing it is
// dispatched like any ready instance, never run on the putting goroutine.
// The runtime resolves fn once per instance.
func (sc *StepCollection[T]) WithTunedGetsAppend(fn func(T, []Dep) []Dep) *StepCollection[T] {
	sc.WithGetsAppend(fn)
	sc.tuned = true
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

// instance is one step instance from launch to release, carved and
// recycled by its step collection. It is the exec.Unit the lanes run, the
// waiter chained on the first cell it still misses, the owner of its read
// set — resolved to cells once, then read before each attempt, waited on and
// released through those cells — and, launched by a throttled put, what the
// accountant admits. An instance on a wait list is always live — it is
// recycled only after its last attempt — which is what makes the lazy
// waitState safe for concurrent deadlock reports.
type instance[T comparable] struct {
	entry
	sc     *StepCollection[T]
	tag    T
	resume int32 // the read a wake continues the chain from
	flags  uint8 // the bits below
	kbits  uint8 // bits of key in use
}

const (
	resolved = 1 << iota // the read set is resolved
	present              // every read is present, or the instance waits for it
	requeued             // waiting after an abort, not at launch
	laneBorn             // an attempt put its tag: recycled onto a lane
)

// acquire takes an instance for tag, keyed as the next tag put through bu
// when bu is an attempt's — from its lane's free list first — else as the
// next one put from outside an attempt.
func (sc *StepCollection[T]) acquire(tag T, bu *Burst) *instance[T] {
	var in *instance[T]
	if bu != nil {
		l := &sc.lanes[bu.lane]
		if in = l.top; in != nil {
			l.top, _ = in.wnext.(*instance[T])
			l.n--
		}
	}
	if in == nil {
		sc.mu.Lock()
		if sc.free == nil {
			sc.free = sc.spare.Swap(nil)
		}
		if in = sc.free; in != nil {
			sc.free, _ = in.wnext.(*instance[T])
		} else {
			if len(sc.slab) == cap(sc.slab) {
				// Grow rounds the slab up to its allocation's size class.
				sc.slab = slices.Grow([]instance[T](nil), min(max(2*cap(sc.slab), 4), 64))
			}
			sc.slab = sc.slab[:len(sc.slab)+1]
			in = &sc.slab[len(sc.slab)-1]
		}
		sc.mu.Unlock()
	}
	in.sc, in.tag, in.wnext, in.flags = sc, tag, nil, 0
	if bu != nil {
		in.flags = laneBorn
		in.key, in.kbits = childKey(bu.key, bu.kbits, bu.kids)
		bu.kids++
	} else {
		in.key, in.kbits = childKey(0, 0, sc.g.envKids.Add(1)-1)
	}
	return in
}

// instance launches the step instance for tag: untuned it is dispatched at
// once (into bu when one is open); tuned it first waits for its read set.
func (sc *StepCollection[T]) instance(tag T, bu *Burst) {
	in := sc.acquire(tag, bu)
	if !sc.tuned {
		in.dispatch(bu)
		return
	}
	in.resolve(bu)
	in.flags |= present
	in.wait(0, nil, 0, bu, bu)
}

// throttle launches the instance for a tag put through PutThrottled under a
// memory limit. Tuned or not, it waits for its read set and then for its
// turn, reserving cost when admitted; admission launches it exactly as
// instance would.
func (sc *StepCollection[T]) throttle(tag T, cost int64, bu *Burst) {
	in := sc.acquire(tag, bu)
	in.resolve(bu)
	if sc.tuned { // untuned, the read before the body still probes
		in.flags |= present
	}
	n := in.subscribe(0, nil)
	if sc.g.acct.enqueue(in, cost, n) {
		in.launch(bu)
		return
	}
	in.arrive(n, bu)
	sc.g.acct.pump()
}

// resolve resolves the read set, once per instance: into the overflow it
// keeps, else into a scratch buffer — bu's, an attempt's, or the graph's,
// which a concurrent resolve outside an attempt finds lent and replaces.
func (in *instance[T]) resolve(bu *Burst) {
	if sc := in.sc; in.flags&resolved == 0 && sc.getsApp != nil {
		p := in.more
		if p == nil && bu != nil {
			p = &bu.scratch
		} else if p == nil {
			if p = sc.g.scratch.Swap(nil); p == nil {
				p = new([]Dep)
			}
			defer sc.g.scratch.Store(p)
		}
		*p = sc.getsApp(in.tag, (*p)[:0])
		in.setReads(*p)
	}
	in.flags |= resolved
}

// dispatch queues the next attempt: into bu, an attempt's burst, or else
// enqueued on the lanes.
func (in *instance[T]) dispatch(bu *Burst) {
	if bu == nil {
		in.sc.g.schedule(in)
		return
	}
	bu.add(in)
}

func (in *instance[T]) waitState() (string, []Dep) {
	label := fmt.Sprintf("%s@%v", in.sc.meta.name, in.tag)
	if in.adm.Load() != 0 {
		label += " (deferred)"
	}
	var later []Dep
	for i := int(in.resume); i < int(in.n); i++ {
		later = append(later, in.dep(in.sc.g, i))
	}
	return label, later
}

// wake continues the chain along the reads after the cell that was put,
// retiring its unit once none is still empty.
func (in *instance[T]) wake(bu *Burst) {
	if !in.chain(int(in.resume)) {
		in.arrive(1, bu)
	}
}

func (in *instance[T]) head() *entry { return &in.entry }

// wait parks the instance, counted in the set of from's lane, until none of
// its reads from index i on is still empty — or, given, until the cell an
// undeclared Get missed is put — then dispatches it again after an abort
// (mark requeued) or launches it, through bu should nothing be missing by
// then.
func (in *instance[T]) wait(i int, missed depCell, mark uint8, from, bu *Burst) {
	add(from, &in.sc.g.counts(from).parked, 1)
	in.flags |= mark
	in.arrive(in.subscribe(i, missed), bu)
}

// subscribe starts the countdown and chains the instance on missed, if
// given, else on the first of its reads from index i on still empty. It
// returns the units for the caller to retire: the sentinel, plus the
// chain's when nothing is missing — so the countdown ends at once.
func (in *instance[T]) subscribe(i int, missed depCell) int32 {
	in.remaining.Store(2)
	if missed != nil {
		in.resume = in.n // the declared reads are present
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
	for ; i < int(in.n); i++ {
		in.resume = int32(i + 1)
		if in.dep(in.sc.g, i).c.subscribe(in) {
			return true
		}
	}
	return false
}

// arrive retires n units of the countdown and, on the last, launches the
// instance — or, throttled and not yet admitted, hands it to the accountant,
// which launches it.
func (in *instance[T]) arrive(n int32, bu *Burst) {
	if in.remaining.Add(-n) != 0 {
		return
	}
	g := in.sc.g
	if in.adm.Load() != 0 && !g.acct.ready(in) {
		return
	}
	add(bu, &g.counts(bu).parked, -1)
	in.launch(bu)
}

// launch dispatches the instance once nothing it waits for is missing,
// counting a requeue after an abort and a tuned instance's triggered run.
func (in *instance[T]) launch(bu *Burst) {
	switch c := in.sc.g.counts(bu); {
	case in.flags&requeued != 0:
		add(bu, &c.requeues, 1)
	case in.sc.tuned:
		add(bu, &c.triggered, 1)
	}
	in.dispatch(bu)
}

// Run executes one (possibly speculative) attempt of the instance on slot,
// whose burst the body puts into; the burst is flushed onto slot's lane
// when the attempt returns, however it returns, and the attempt's unit of
// outstanding work passes to what it staged or is retired.
func (in *instance[T]) Run(slot int) {
	sc, tag := in.sc, in.tag
	g := sc.g
	bu := &g.bursts[slot].Burst
	defer bu.flush(g, slot)
	// Cooperative cancellation: a cancelled graph drains dispatched work
	// without running it, so RunContext returns as soon as the queue and
	// the in-flight step bodies retire.
	if g.cancelled.Load() {
		in.recycle(bu)
		return
	}
	add(bu, &bu.counts.started, 1)
	if dc := g.discipline; dc != nil {
		// Attribute every put/get/release the attempt issues to this instance.
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
			// scratch.
			add(bu, &bu.counts.aborts, 1)
			in.wait(0, missed, requeued, bu, nil)
			return
		}
		if uaf, ok := r.(*UseAfterFreeError); ok {
			// A Get hit a freed item: a deterministic memory-contract
			// violation, already recorded on the graph. Never retried —
			// every re-execution would read the same freed key.
			g.fail(fmt.Errorf("cnc: step %s on tag %v read a freed item: %w", sc.meta.name, tag, uaf))
			in.recycle(bu)
			return
		}
		in.failed(fmt.Errorf("cnc: step %s panicked on tag %v: %v", sc.meta.name, tag, r), bu)
	}()
	if h := g.hooks; h != nil && h.BeforeStep != nil {
		if err := h.BeforeStep(sc.meta.name, tag); err != nil {
			in.failed(fmt.Errorf("cnc: step %s failed on tag %v: %w", sc.meta.name, tag, err), bu)
			return
		}
	}
	if !in.read(bu) {
		return
	}
	bu.key, bu.kbits, bu.kids = in.key, in.kbits, 0
	if err := sc.body(tag, bu); err != nil {
		in.failed(fmt.Errorf("cnc: step %s failed on tag %v: %w", sc.meta.name, tag, err), bu)
		return
	}
	// Successful completion: release the read set exactly once, however
	// many aborted or retried attempts preceded this one.
	for i := range int(in.n) {
		in.dep(g, i).c.release()
	}
	add(bu, &bu.counts.done, 1)
	in.recycle(bu)
}

// read reads the declared read set before the body runs, reporting whether
// the body may run. A missing item aborts the attempt: the instance waits on
// it and each later read still empty, and is requeued once all are put. A
// freed item fails the attempt, never retried — the graph has failed.
func (in *instance[T]) read(bu *Burst) bool {
	in.resolve(bu)
	g := in.sc.g
	if in.flags&present == 0 {
		for i := range int(in.n) {
			switch in.dep(g, i).c.probe() {
			case cellEmpty:
				add(bu, &bu.counts.aborts, 1)
				in.flags |= present // by the time the requeue runs
				in.wait(i, nil, requeued, bu, nil)
				return false
			case cellFreed:
				in.recycle(bu)
				return false
			}
		}
		in.flags |= present
	}
	if g.discipline != nil {
		for i := range int(in.n) {
			in.dep(g, i).c.recordGet()
		}
	}
	return true
}

// failed handles one failed attempt: re-dispatch while the instance has
// retry budget left (see Graph.SetRetry for why re-execution is sound),
// otherwise record the error on the graph. The re-dispatch adds outstanding
// work before the current attempt retires its own unit, so the graph cannot
// quiesce in between. bu is the attempt's.
func (in *instance[T]) failed(err error, bu *Burst) {
	sc := in.sc
	if sc.takeRetry(in.tag) {
		sc.g.stats.retries.Add(1)
		in.dispatch(nil)
		return
	}
	sc.g.fail(err)
	in.recycle(bu)
}

// recycle frees the instance at the end of its last attempt, whose burst is
// bu: onto bu's lane's free list when an attempt put its tag and the list
// has room, else onto the shared one — where the environment, which puts
// from outside any attempt, takes its instances.
func (in *instance[T]) recycle(bu *Burst) {
	sc := in.sc
	if in.more != nil {
		clear((*in.more)[:in.n])
	}
	var zero T
	in.sc, in.tag, in.n = nil, zero, 0
	if l := &sc.lanes[bu.lane]; in.flags&laneBorn != 0 && l.n < laneFreeMax {
		in.wnext, l.top = l.top, in
		l.n++
		return
	}
	for {
		top := sc.spare.Load()
		in.wnext = top
		if sc.spare.CompareAndSwap(top, in) {
			return
		}
	}
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

// PutInto is Put from inside an attempt: instances whose dependencies are
// already satisfied are appended to bu, the attempt's burst, instead of
// being enqueued one at a time; they are spawned on the attempt's lane when
// it returns. The semantics are otherwise exactly Put's — memoization,
// hooks and statistics all apply — and the attempt holds the graph open
// until its flush has counted them. A nil bu is Put.
func (tc *TagCollection[T]) PutInto(tag T, bu *Burst) {
	if !tc.accept(tag, bu) {
		return
	}
	for _, sc := range tc.prescribedList() {
		sc.instance(tag, bu)
	}
}

// accept is the prologue of every tag put through bu — the running check,
// the DropTag hook, memoization and the TagsPut count — reporting whether
// the tag prescribes instances.
func (tc *TagCollection[T]) accept(tag T, bu *Burst) bool {
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
	add(bu, &tc.g.counts(bu).tagsPut, 1)
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

// PutThrottledInto is PutThrottled from inside an attempt: instances
// admitted immediately (no memory limit, or zero declared cost, or nothing
// deferred ahead, inputs present and budget available) go through bu
// exactly like PutInto's; a deferred one is enqueued when admission
// launches it, since its admission time is not under the putter's control.
func (tc *TagCollection[T]) PutThrottledInto(tag T, bu *Burst) {
	var cost int64
	if tc.g.acct.limit > 0 && tc.tagBytes != nil {
		cost = int64(tc.tagBytes(tag))
	}
	if cost == 0 {
		tc.PutInto(tag, bu) // control-only tags occupy no budget and are never deferred
		return
	}
	if !tc.accept(tag, bu) {
		return
	}
	for _, sc := range tc.prescribedList() {
		sc.throttle(tag, cost, bu)
		cost = 0 // reserved once, on the first instance
	}
}

// itemShards is the stripe count of an ItemCollection's key space (a power
// of two so stripe selection is a mask). 16 stripes ≈ 2× the largest worker
// counts the real runs here use, which keeps the probability that two
// concurrent tile operations collide on a stripe low while the per-shard
// constant cost (one small table) stays negligible; see DESIGN.md §3.
const itemShards = 16

// itemShard is one stripe of an ItemCollection: the lock of the cells whose
// keys fall into it — by hash, or by number in a numbered collection — and,
// hashed, the table that finds them. Every collection operation is
// single-key, so puts and gets on different tiles proceed on different
// stripes without serialising.
type itemShard[K comparable, V any] struct {
	mu sync.Mutex
	ic *ItemCollection[K, V]
	// table indexes a hashed collection's cells by slot hash: open
	// addressing, linear probing, at most ¾ full, insert-only (a freed cell
	// is a tombstone).
	table []*cell[K, V]
	cells int // cells in table
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

// item is one write-once item, whichever lookup finds its cell: the value,
// its state and live get-count, its backend handle and the instances
// waiting for it, all guarded by the cell's stripe lock but word. That
// packs the state (low two bits) and the get-count (above; 0 on a present
// cell = un-counted, pinned) so that a read finding the cell present and a
// release leaving the count above zero take no lock (lockFree, release). A
// freed item stays as the tombstone that turns later accesses into
// deterministic use-after-free errors, but drops its value, so get-count
// GC still frees real memory.
type item[V any] struct {
	waiters  waiter // the chain's head, linked through entry.wnext
	val      V
	mirrored bool // handle holds the backend's handle for this item's put
	word     atomic.Uint32
	handle   uint32 // see mirrored and ItemBackend
	// slot places the cell: a hashed cell's slot hash in its stripe's table
	// (the high half of its key's hash), a numbered cell's number.
	slot uint32
}

// oneGet is one get-count in an item's word, above the state's two bits.
const oneGet = 1 << 2

func (it *item[V]) state() cellState { return cellState(it.word.Load() % oneGet) }

// cell is an item of a hashed collection, which keeps its key and its
// stripe. Consumers hold the cell (through Dep), not the key, so waiting,
// probing and releasing cost no lookup.
type cell[K comparable, V any] struct {
	item[V]
	sh  *itemShard[K, V]
	key K
}

// ncell is an item of a numbered collection (NumberKeys). Its number — its
// place in the space — gives its key and its stripe, so it keeps only the
// collection that holds it, set by the first lookup that names it.
type ncell[K comparable, V any] struct {
	item[V]
	ic atomic.Pointer[ItemCollection[K, V]]
}

// place is a cell as the one state machine sees it, whichever lookup found
// it: its item, its collection, its stripe lock and its key — held by a
// hashed cell, read off the numbering on demand for a numbered one.
type place[K comparable, V any] struct {
	*item[V]
	ic *ItemCollection[K, V]
	mu *sync.Mutex
	k  *K
}

func (c *cell[K, V]) place() place[K, V] { return place[K, V]{&c.item, c.sh.ic, &c.sh.mu, &c.key} }

func (c *ncell[K, V]) place() place[K, V] {
	ic := c.ic.Load()
	return place[K, V]{&c.item, ic, &ic.shards[c.slot&(itemShards-1)].mu, nil}
}

func (p place[K, V]) key() K {
	if p.k != nil {
		return *p.k
	}
	return p.ic.num.key(int(p.slot))
}

// Both kinds of cell are depCells through the one state machine.
func (c *cell[K, V]) String() string           { return c.place().String() }
func (c *cell[K, V]) probe() cellState         { return c.place().probe() }
func (c *cell[K, V]) peek() cellState          { return c.place().peek() }
func (c *cell[K, V]) recordGet()               { c.place().recordGet() }
func (c *cell[K, V]) subscribe(w waiter) bool  { return c.place().subscribe(w) }
func (c *cell[K, V]) release()                 { c.place().release() }
func (c *cell[K, V]) freeableBytes() int64     { return c.place().freeableBytes() }
func (c *ncell[K, V]) String() string          { return c.place().String() }
func (c *ncell[K, V]) probe() cellState        { return c.place().probe() }
func (c *ncell[K, V]) peek() cellState         { return c.place().peek() }
func (c *ncell[K, V]) recordGet()              { c.place().recordGet() }
func (c *ncell[K, V]) subscribe(w waiter) bool { return c.place().subscribe(w) }
func (c *ncell[K, V]) release()                { c.place().release() }
func (c *ncell[K, V]) freeableBytes() int64    { return c.place().freeableBytes() }
func (c *cell[K, V]) number() (uint32, bool)   { return 0, false }
func (c *ncell[K, V]) number() (uint32, bool)  { return c.slot, true }

// ItemCollection is a single-assignment associative data collection.
type ItemCollection[K comparable, V any] struct {
	g    *Graph
	name string
	meta *itemMeta

	// getCount and sizeOf are write-before-Run declarations.
	getCount func(K) int
	sizeOf   func(K) int

	// num is the numbered key space the collection shares (NumberKeys);
	// nil: its cells are found by hash.
	num      *numbering[K, V]
	hashSeed maphash.Seed
	shards   [itemShards]itemShard[K, V]
}

// numbering is a numbered key space: one cell per key, in one array shared
// by the collections that partition it, found by the key's number.
type numbering[K comparable, V any] struct {
	id    func(K) int
	key   func(int) K
	cells []ncell[K, V]
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
	meta.blocked = ic.blockedInstances
	g.structMu.Lock()
	g.items = append(g.items, meta)
	g.structMu.Unlock()
	return ic
}

// NumberKeys declares that the item collections colls of one graph
// partition a numbered key space: n keys, key k numbered id(k) in [0, n)
// and named back by key(id(k)), each key in one of the collections. Their
// cells then live in one array of n cells shared by the collections, and
// a key's cell is found by its number — no hash, no probe — under the
// stripe lock id(k) mod the stripe count. Nothing else changes: the items
// behave exactly as in a hashed collection. A key numbered outside [0, n),
// or given the number of a key of another collection of the set, panics.
// A graph has at most one numbered key space, of fewer than 2³² keys.
// Declare it before Run, before the collections name any key.
func NumberKeys[K comparable, V any](n int, id func(K) int, key func(int) K, colls ...*ItemCollection[K, V]) {
	g := colls[0].g
	s := &numbering[K, V]{id: id, key: key, cells: make([]ncell[K, V], n)}
	for i := range s.cells {
		s.cells[i].slot = uint32(i)
	}
	for _, ic := range colls {
		if ic.g != g || g.numbered != nil {
			panic(fmt.Sprintf("cnc: item collection %s cannot join the numbered key space of %s", ic.name, colls[0].name))
		}
		ic.num = s
	}
	g.numbered = func(i uint32) Dep { return Dep{&s.cells[i]} }
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
	sh.slab = append(sh.slab, cell[K, V]{item: item[V]{slot: h}, sh: sh, key: k})
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
	for c := sh.table[i]; c != nil && (c.slot != h || c.key != k); c = sh.table[i] {
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
			sh.table[sh.slot(c.key, c.slot)] = c
		}
	}
}

// numbered returns the cell numbered as k, claiming it for ic when no
// collection has named it yet.
func (ic *ItemCollection[K, V]) numbered(k K) *ncell[K, V] {
	s := ic.num
	i := s.id(k)
	if uint(i) >= uint(len(s.cells)) {
		panic(fmt.Sprintf("cnc: item %s[%v] is numbered %d, outside the numbered key space [0, %d)", ic.name, k, i, len(s.cells)))
	}
	c := &s.cells[i]
	if c.ic.Load() != ic && !c.ic.CompareAndSwap(nil, ic) && c.ic.Load() != ic {
		panic(fmt.Sprintf("cnc: item %s[%v] is numbered %d, the number of an item of %s", ic.name, k, i, c.ic.Load().name))
	}
	return c
}

// lookup returns k's cell with its stripe locked, as the state machine sees
// it and as a Dep names it: a numbered collection indexes its space, a
// hashed one probes k's stripe, creating the cell empty when k is new.
func (ic *ItemCollection[K, V]) lookup(k K) (place[K, V], depCell) {
	if ic.num != nil {
		c := ic.numbered(k)
		p := c.place()
		p.mu.Lock()
		return p, c
	}
	sh, h := ic.shardOf(k)
	sh.mu.Lock()
	c := sh.cellOf(k, h)
	return c.place(), c
}

// each visits every cell of the collection with its stripe locked.
func (ic *ItemCollection[K, V]) each(visit func(c place[K, V])) {
	for s := range ic.shards {
		sh := &ic.shards[s]
		sh.mu.Lock()
		if ic.num != nil {
			for i, cells := s, ic.num.cells; i < len(cells); i += itemShards {
				if c := &cells[i]; c.ic.Load() == ic {
					visit(c.place())
				}
			}
		} else {
			for _, c := range sh.table {
				if c != nil {
					visit(c.place())
				}
			}
		}
		sh.mu.Unlock()
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

// Puts returns the number of successful puts into the collection: its cells
// no longer empty, since a put fills one and a second put of a key fails.
// Unlike Len it is unaffected by get-count garbage collection, so it keeps
// reporting the task census after items are freed. It visits every cell.
func (ic *ItemCollection[K, V]) Puts() uint64 {
	var n uint64
	ic.each(func(c place[K, V]) {
		if c.state() != cellEmpty {
			n++
		}
	})
	return n
}

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
// Dep stays valid for the whole run. A numbered cell exists already, so
// naming it takes no lock.
func (ic *ItemCollection[K, V]) Key(k K) Dep {
	if ic.num != nil {
		return Dep{ic.numbered(k)}
	}
	p, c := ic.lookup(k)
	p.mu.Unlock()
	return Dep{c}
}

// Put stores the item under key k and wakes every step instance parked on
// it. Re-putting a key — freed or not — violates CnC's dynamic single
// assignment rule and fails the graph. Under a memory limit the put waits
// for byte budget (see Graph.WithMemoryLimit) before storing.
func (ic *ItemCollection[K, V]) Put(k K, v V) { ic.PutInto(k, v, nil) }

// PutInto is Put with the wakeups of the waiters it satisfies appended to
// bu — an attempt's burst, so they run next on the attempt's own worker.
// With a nil bu they are enqueued round-robin.
func (ic *ItemCollection[K, V]) PutInto(k K, v V, bu *Burst) {
	ic.g.checkRunning()
	if h := ic.g.hooks; h != nil && h.BeforeItemPut != nil {
		h.BeforeItemPut(ic.name, k)
	}
	size := ic.sizeBytes(k)
	// Admission before the stripe lock: the budget wait must not block
	// other gets/puts/frees on this collection (frees are what clear it).
	ic.g.acct.admitItem(size)
	c, _ := ic.lookup(k)
	if state := c.state(); state != cellEmpty {
		wasFreed := state == cellFreed
		c.mu.Unlock()
		ic.g.acct.refund(size)
		ic.g.fail(ic.doublePutError(k, v, wasFreed))
		return
	}
	c.val = v
	word := uint32(cellPresent)
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
			word |= uint32(declared) * oneGet
		}
	}
	c.word.Store(word)
	if dc := ic.g.discipline; dc != nil {
		// Still under the stripe lock: a second writer that finds this cell
		// present must also find its first writer in the checker's ledger.
		dc.RecordPut(ic.name, k, declared, fmt.Sprint(v))
	}
	w := c.waiters // detach the chain
	c.waiters = nil
	if freeNow {
		c.free()
	}
	c.mu.Unlock()
	add(bu, &ic.g.counts(bu).itemsPut, 1)
	if freeNow {
		ic.g.acct.free(size)
	}
	// Mirror to the external backend before any waiter is woken, so the
	// backend receives an item before the items computed from it (see
	// ItemBackend). (The backend check sits here so the common path does
	// not box k and v.)
	if ic.g.backend != nil {
		c.mirror(k, v)
	}
	for w != nil {
		// Read the link first: the wake may chain w on its next cell.
		next := w.head().wnext
		w.wake(bu)
		w = next
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

// free turns a present item into its tombstone, dropping the value.
// Callers hold the stripe lock and charge the accountant after unlocking.
func (it *item[V]) free() {
	var zero V
	it.val = zero
	it.word.Store(uint32(cellFreed))
}

// useAfterFree records (and returns) the deterministic error of touching
// this cell after its get-count freed it.
func (c place[K, V]) useAfterFree() *UseAfterFreeError {
	ic, k := c.ic, c.key()
	err := &UseAfterFreeError{Collection: ic.name, Key: k}
	if dc := ic.g.discipline; dc != nil {
		err.Overdraw = dc.Overdraw(ic.name, k, "get")
	}
	ic.g.fail(err)
	return err
}

func (c place[K, V]) String() string { return fmt.Sprintf("%s[%v]", c.ic.name, c.key()) }

// lockFree reports whether a read that finds the cell present may skip the
// stripe lock: a present cell is freed only by its last declared release,
// which the reader holds one of until it completes. A discipline checker's
// records need the lock to stay ordered.
func (c place[K, V]) lockFree() bool { return c.ic.g.discipline == nil }

// release implements depCell for StepCollection.WithGets; on collections
// without a get-count it is a no-op, so a shared read-set declaration can
// span counted and uncounted collections. A release leaving the count
// above zero is one CAS. Only the lock takes it to zero, so exactly one
// release frees, and any later one finds the cell freed.
func (c place[K, V]) release() {
	ic := c.ic
	if ic.getCount == nil {
		return
	}
	if c.lockFree() {
		for w := c.word.Load(); w%oneGet == uint32(cellPresent) && w >= 2*oneGet; w = c.word.Load() {
			if c.word.CompareAndSwap(w, w-oneGet) {
				return
			}
		}
	}
	c.mu.Lock()
	switch w := c.word.Load(); {
	case w%oneGet == uint32(cellFreed):
		c.mu.Unlock()
		err := fmt.Errorf("cnc: over-release of item %v: get-count reached zero before its last declared reader (declared count too low)", c)
		if dc := ic.g.discipline; dc != nil {
			err = fmt.Errorf("%v; %w", dc.Overdraw(ic.name, c.key(), "release"), err)
		}
		ic.g.fail(err)
		return
	case w%oneGet == uint32(cellEmpty):
		c.mu.Unlock()
		ic.g.fail(fmt.Errorf("cnc: release of item %v that was never put", c))
		return
	case w < oneGet:
		// Present but un-counted: the negative-count error path left it
		// pinned; the graph already failed.
		c.mu.Unlock()
		return
	}
	if dc := ic.g.discipline; dc != nil {
		dc.RecordRelease(ic.name, c.key())
	}
	// Subtract one get: a concurrent CAS may have taken one more since the
	// load, never the last.
	if c.word.Add(^uint32(oneGet-1)) >= oneGet {
		c.mu.Unlock()
		return
	}
	c.free()
	h, mirrored := c.handle, c.mirrored
	c.mu.Unlock()
	if mirrored {
		ic.g.backend.Free(h)
	}
	ic.g.acct.free(ic.sizeBytes(c.key()))
}

// freeableBytes records nothing, so it never takes the lock.
func (c place[K, V]) freeableBytes() int64 {
	if c.word.Load() != uint32(cellPresent)|oneGet {
		return 0
	}
	return c.ic.sizeBytes(c.key())
}

// subscribe is the one place an instance is put on a wait list.
func (c place[K, V]) subscribe(w waiter) bool {
	if c.lockFree() && c.state() == cellPresent {
		return false
	}
	c.mu.Lock()
	state := c.state()
	if state == cellEmpty {
		w.head().wnext, c.waiters = c.waiters, w
	}
	c.mu.Unlock()
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
	c, d := ic.lookup(k)
	v, state := c.val, c.state()
	c.mu.Unlock()
	switch state {
	case cellEmpty:
		// The abort signal is the missed cell itself: pointer-shaped, so the
		// panic allocates nothing, and the attempt's recover parks on it.
		panic(d)
	case cellFreed:
		panic(c.useAfterFree()) // unwinds the step like a failed Get, but is never retried
	}
	c.recordGet()
	return v
}

// recordGet attributes a read of the present cell to the discipline
// checker, if one is installed. The nil check sits here so the common path
// does not box the key.
func (c place[K, V]) recordGet() {
	ic := c.ic
	if dc := ic.g.discipline; dc != nil {
		dc.RecordGet(ic.name, c.key())
	}
}

func (c place[K, V]) peek() cellState {
	if state := c.state(); state == cellPresent && c.lockFree() {
		return state
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state()
}

func (c place[K, V]) probe() cellState {
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
	c, _ := ic.lookup(k)
	v, state := c.val, c.state() // the zero V unless present
	c.mu.Unlock()
	if state == cellFreed {
		c.useAfterFree()
	} else if state == cellPresent {
		c.recordGet()
	}
	return v, state == cellPresent
}

// Len returns the number of items currently live — put and not yet freed
// by get-count garbage collection. For the total ever put, use Puts. It
// visits every cell.
func (ic *ItemCollection[K, V]) Len() int {
	n := 0
	ic.each(func(c place[K, V]) {
		if c.state() == cellPresent {
			n++
		}
	})
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
	ic.each(func(c place[K, V]) {
		for w := c.waiters; w != nil; w = w.head().wnext {
			label, ds := w.waitState()
			out = append(out, fmt.Sprintf("%s <- %v", label, c))
			for _, d := range ds {
				rest = append(rest, later{label, d})
			}
		}
	})
	for _, l := range rest {
		if l.d.c.peek() == cellEmpty {
			out = append(out, fmt.Sprintf("%s <- %v", l.label, l.d))
		}
	}
	sort.Strings(out)
	return out
}

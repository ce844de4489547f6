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
// after a failed Get. Returning a non-nil error fails the whole graph.
type StepFunc[T comparable] func(tag T) error

// TuningMode selects how a tuned step collection schedules its instances.
type TuningMode int

const (
	// TunedPrescheduled is the paper's "Tuner-CnC": dependencies declared by
	// WithDeps are resolved when the tag is put; if all items are already
	// present the instance runs inline on the putting goroutine, avoiding
	// the scheduler round-trip; otherwise it is scheduled when the last
	// dependency arrives.
	TunedPrescheduled TuningMode = iota
	// TunedTriggered is the building block of the paper's "Manual-CnC":
	// every instance waits on a countdown of its declared dependencies and
	// is scheduled (never inline) when the countdown reaches zero.
	TunedTriggered
)

// Dep names one item dependency of a step instance: a key in a specific
// item collection. Construct them with ItemCollection.Key so the key type
// always matches the collection.
type Dep struct {
	store itemStore
	key   any
}

// String renders the dependency as "collection[key]".
func (d Dep) String() string { return fmt.Sprintf("%s[%v]", d.store.collName(), d.key) }

// itemStore is the type-erased view of an item collection used by tuned
// scheduling and get-count release.
type itemStore interface {
	collName() string
	// subscribe registers notify to fire once when key becomes present,
	// labelled (lazily, through who) for deadlock reports. It returns
	// false — without registering — when key is already present.
	subscribe(key any, who waitLabeler, notify func(*Burst)) bool
	// release decrements key's get-count (no-op on collections without
	// one), freeing the item at zero.
	release(key any)
	// has reports whether key is readable now or was already freed — the
	// memory-throttling readiness probe. A freed key counts as "ready" so
	// the admitted step surfaces the deterministic use-after-free error
	// instead of deferring forever.
	has(key any) bool
	// freeableBytes reports key's accounted size when one more release
	// would free it (present, remaining get-count exactly 1), else 0 —
	// the admission probe that classifies throttled puts as freeing or
	// growing.
	freeableBytes(key any) int64
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

	// depsApp and getsApp are the append-form dependency and read-set
	// declarations (WithDepsAppend / WithGetsAppend); the slice-returning
	// WithDeps / WithGets wrap their callbacks into this form so the
	// runtime has a single internal representation that composes with
	// pooled scratch buffers.
	depsApp   func(T, []Dep) []Dep
	getsApp   func(T, []Dep) []Dep
	mode      TuningMode
	computeOn func(T) int

	retry    int
	retryMu  sync.Mutex
	attempts map[T]int

	// taskPool recycles dispatch envelopes (stepTask) and latchPool the
	// dependency-countdown latches (depLatch), so both the untuned and the
	// tuned dispatch paths allocate nothing in steady state.
	taskPool  sync.Pool
	latchPool sync.Pool
}

// retryUnset marks a step collection that has not called WithRetry, so the
// graph-wide SetRetry default applies. An explicit WithRetry(0) stores 0
// and means "no retries for this collection".
const retryUnset = -1

// NewStepCollection registers a step collection on g.
func NewStepCollection[T comparable](g *Graph, name string, fn StepFunc[T]) *StepCollection[T] {
	meta := &stepMeta{name: name}
	g.structMu.Lock()
	g.steps = append(g.steps, meta)
	g.structMu.Unlock()
	return &StepCollection[T]{g: g, meta: meta, fn: fn, retry: retryUnset}
}

// WithDeps declares the per-tag item dependencies of the step and the tuning
// mode to use. With deps declared, instances are never executed
// speculatively: they run exactly once, when every declared dependency is
// available. The declaration must cover every Get the step performs;
// undeclared Gets fall back to the speculative abort path.
func (sc *StepCollection[T]) WithDeps(mode TuningMode, deps func(T) []Dep) *StepCollection[T] {
	return sc.WithDepsAppend(mode, func(tag T, buf []Dep) []Dep {
		return append(buf, deps(tag)...)
	})
}

// WithDepsAppend is the allocation-free form of WithDeps: instead of
// returning a fresh slice, the callback appends the tag's dependencies to a
// runtime-pooled scratch buffer and returns it (the usual append idiom).
// The buffer is only valid for the duration of the call — the callback must
// not retain it.
func (sc *StepCollection[T]) WithDepsAppend(mode TuningMode, deps func(T, []Dep) []Dep) *StepCollection[T] {
	sc.depsApp = deps
	sc.mode = mode
	return sc
}

// WithGets declares the exact per-tag read set of the step for get-count
// garbage collection: when an instance completes successfully, the runtime
// releases (decrements the get-count of) every item the declaration names,
// freeing items whose count reaches zero. The declaration must cover every
// item the step reads and nothing else — a missing entry leaks the item
// (Stats.LiveItems stays nonzero), an extra entry trips a deterministic
// over-release error.
//
// Releases fire only on successful completion, never per Get. This is what
// makes get-counts compose with the rest of the runtime: a speculative
// abort re-reads its items on re-execution without double-counting, a
// WithRetry re-execution decrements exactly once however many attempts
// failed, and a drained (cancelled) or failed instance releases nothing. It
// also means the declaration is incompatible with steps that complete
// successfully *without* consuming their reads — the non-blocking variant's
// TryGet-miss-and-re-put-own-tag pattern retires a successful instance per
// poll, so non-blocking step collections must not declare gets.
func (sc *StepCollection[T]) WithGets(fn func(T) []Dep) *StepCollection[T] {
	return sc.WithGetsAppend(func(tag T, buf []Dep) []Dep {
		return append(buf, fn(tag)...)
	})
}

// WithGetsAppend is the allocation-free form of WithGets: the callback
// appends the tag's read set to a runtime-pooled scratch buffer and returns
// it. The buffer is only valid for the duration of the call.
func (sc *StepCollection[T]) WithGetsAppend(fn func(T, []Dep) []Dep) *StepCollection[T] {
	sc.getsApp = fn
	sc.g.structMu.Lock()
	sc.meta.releases = true
	sc.g.structMu.Unlock()
	return sc
}

// readyFor reports whether every declared get of the instance for tag is
// already readable — the admission probe for memory-throttled tag puts.
// Steps without a WithGets declaration are always ready.
func (sc *StepCollection[T]) readyFor(tag T) bool {
	if sc.getsApp == nil {
		return true
	}
	bufp := sc.g.takeDeps()
	ds := sc.getsApp(tag, *bufp)
	ready := true
	for _, d := range ds {
		if !d.store.has(d.key) {
			ready = false
			break
		}
	}
	*bufp = ds
	sc.g.putDeps(bufp)
	return ready
}

// freeableFor reports how many accounted bytes the instance for tag would
// free on completion: the total size of its declared gets for which this
// read is the last (remaining get-count 1). Admission uses it to tell
// memory-releasing steps apart from memory-growing ones.
func (sc *StepCollection[T]) freeableFor(tag T) int64 {
	if sc.getsApp == nil {
		return 0
	}
	bufp := sc.g.takeDeps()
	ds := sc.getsApp(tag, *bufp)
	var n int64
	for _, d := range ds {
		n += d.store.freeableBytes(d.key)
	}
	*bufp = ds
	sc.g.putDeps(bufp)
	return n
}

// takeDeps and putDeps manage the pooled []Dep scratch buffers handed to
// WithDepsAppend/WithGetsAppend callbacks.
func (g *Graph) takeDeps() *[]Dep {
	p, _ := g.depsPool.Get().(*[]Dep)
	if p == nil {
		p = new([]Dep)
	}
	return p
}

func (g *Graph) putDeps(p *[]Dep) {
	clear(*p)
	*p = (*p)[:0]
	g.depsPool.Put(p)
}

// WithRetry allows every instance of the step to be re-executed up to n
// times after a failed attempt (an error returned by the body, an error
// from a BeforeStep hook, or a contained panic) before the failure is
// recorded and fails the graph. An explicit WithRetry(0) opts the
// collection out of retries even when Graph.SetRetry sets a graph-wide
// default; collections that never call WithRetry inherit the default. Re-execution is sound only because CnC
// steps are written gets-first/puts-last: an attempt that fails before its
// first Put has no observable side effects, so running it again is
// indistinguishable from running it once — the same invariant the
// speculative abort path relies on. Steps that can fail *after* putting
// items or tags must not use WithRetry: the re-executed Put would trip the
// single-assignment check (items) or duplicate instances (unmemoized
// tags). A graph-wide default for collections without their own budget can
// be set with Graph.SetRetry.
func (sc *StepCollection[T]) WithRetry(n int) *StepCollection[T] {
	if n < 0 {
		n = 0 // negative budgets mean "no retries", same as an explicit 0
	}
	sc.retry = n
	return sc
}

// WithComputeOn installs a placement tuner (Intel CnC's compute_on hint):
// every instance runs on worker fn(tag) mod Workers, never elsewhere. The
// paper's §IV-B suggests exactly this to pin tile tasks to cores and
// minimise inter-core and inter-NUMA data movement. Compute-on placement
// disables the prescheduling tuner's inline execution (a step must not run
// on the putting goroutine when it is pinned elsewhere).
func (sc *StepCollection[T]) WithComputeOn(fn func(T) int) *StepCollection[T] {
	sc.computeOn = fn
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

// stepTask is the pooled dispatch envelope: one queued execution attempt of
// a step instance. Storing *stepTask in the lanes' exec.Unit interface is
// allocation-free (the value is pointer-shaped), and Run recycles the
// envelope before executing, so the untuned dispatch path allocates nothing
// in steady state. Cancellation is checked inside execute, which also
// covers the inline dispatch paths that never pass through the lanes.
type stepTask[T comparable] struct {
	sc  *StepCollection[T]
	tag T
}

func (t *stepTask[T]) Run(int) {
	sc, tag := t.sc, t.tag
	t.sc = nil
	var zero T
	t.tag = zero
	sc.taskPool.Put(t)
	sc.execute(tag)
}

func (sc *StepCollection[T]) newTask(tag T) *stepTask[T] {
	t, _ := sc.taskPool.Get().(*stepTask[T])
	if t == nil {
		t = &stepTask[T]{}
	}
	t.sc = sc
	t.tag = tag
	return t
}

// dispatch schedules one runnable execution attempt, honouring compute_on
// placement.
func (sc *StepCollection[T]) dispatch(tag T) {
	if sc.computeOn != nil {
		sc.g.scheduleOn(sc.computeOn(tag), sc.newTask(tag))
		return
	}
	sc.g.schedule(sc.newTask(tag))
}

// dispatchInto appends the execution attempt to bu when one is open, so the
// queue push and the worker wakeup are paid once per burst; otherwise (or
// for pinned steps, whose lane is fixed) it dispatches immediately.
func (sc *StepCollection[T]) dispatchInto(tag T, bu *Burst) {
	if bu == nil || bu.g == nil || sc.computeOn != nil {
		sc.dispatch(tag)
		return
	}
	bu.add(sc.g, sc.newTask(tag))
}

// depLatch is the pooled dependency-countdown latch of one tuned step
// instance: the +1 sentinel guarantees the release runs at most once and
// only after every subscribe call has been issued. notify is the pre-bound
// external-arrival closure, created once per latch allocation and reused
// across pool generations, so steady-state instance launches allocate
// nothing. The latch recycles itself on the final arrival; any waiter still
// registered on an item shard implies a pending arrival (remaining ≥ 1), so
// a latch reachable from a wait list is always live — which is what makes
// the lazy waitLabel safe for concurrent deadlock reports.
type depLatch[T comparable] struct {
	sc        *StepCollection[T]
	tag       T
	remaining atomic.Int64
	notify    func(*Burst)
}

func (l *depLatch[T]) waitLabel() string {
	return fmt.Sprintf("%s@%v", l.sc.meta.name, l.tag)
}

func (l *depLatch[T]) arrive(inline bool, bu *Burst) {
	if l.remaining.Add(-1) != 0 {
		return
	}
	sc, tag := l.sc, l.tag
	l.sc = nil
	var zero T
	l.tag = zero
	sc.latchPool.Put(l)
	g := sc.g
	g.parked.Add(-1)
	if inline && sc.mode == TunedPrescheduled && sc.computeOn == nil {
		g.stats.inline.Add(1)
		g.outstanding.Add(1)
		sc.execute(tag)
		return
	}
	g.stats.triggered.Add(1)
	sc.dispatchInto(tag, bu)
}

func (sc *StepCollection[T]) newLatch(tag T) *depLatch[T] {
	l, _ := sc.latchPool.Get().(*depLatch[T])
	if l == nil {
		l = &depLatch[T]{}
		l.notify = func(bu *Burst) { l.arrive(false, bu) }
	}
	l.sc = sc
	l.tag = tag
	l.remaining.Store(1)
	return l
}

// instance launches the step instance for tag according to the collection's
// tuning mode. A non-nil bu batches the resulting dispatch (if any) with
// the rest of the burst.
func (sc *StepCollection[T]) instance(tag T, bu *Burst) {
	g := sc.g
	if sc.depsApp == nil {
		sc.dispatchInto(tag, bu)
		return
	}
	bufp := g.takeDeps()
	deps := sc.depsApp(tag, *bufp)
	l := sc.newLatch(tag)
	g.parked.Add(1)
	for _, d := range deps {
		l.remaining.Add(1)
		if !d.store.subscribe(d.key, l, l.notify) {
			l.remaining.Add(-1) // already present
		}
	}
	*bufp = deps
	g.putDeps(bufp)
	l.arrive(true, bu) // retire the sentinel; runs inline when no dep was missing
}

// execute runs one (possibly speculative) execution attempt of the instance.
func (sc *StepCollection[T]) execute(tag T) {
	g := sc.g
	defer g.taskDone()
	// Cooperative cancellation: a cancelled graph drains dispatched work
	// without running it, so RunContext returns as soon as the queue and
	// the in-flight step bodies retire.
	if g.cancelled.Load() {
		return
	}
	g.stats.started.Add(1)
	if dc := g.discipline; dc != nil {
		// Attribute every put/get/release the body issues — including those
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
		if rs, ok := r.(*retrySignal); ok {
			// Failed blocking Get: park this instance on the item's wait
			// list; Put will re-schedule it from scratch (batched with the
			// put's other wakeups when it passes a burst).
			g.stats.aborts.Add(1)
			label := fmt.Sprintf("%s@%v", sc.meta.name, tag)
			rs.park(label, func(bu *Burst) {
				g.stats.requeues.Add(1)
				sc.dispatchInto(tag, bu)
			})
			return
		}
		if uaf, ok := r.(*UseAfterFreeError); ok {
			// A Get hit a freed item: a deterministic memory-contract
			// violation, already recorded on the graph. Never retried —
			// every re-execution would read the same freed key.
			g.fail(fmt.Errorf("cnc: step %s on tag %v read a freed item: %w", sc.meta.name, tag, uaf))
			return
		}
		sc.failed(tag, fmt.Errorf("cnc: step %s panicked on tag %v: %v", sc.meta.name, tag, r))
	}()
	if h := g.hooks; h != nil && h.BeforeStep != nil {
		if err := h.BeforeStep(sc.meta.name, tag); err != nil {
			sc.failed(tag, fmt.Errorf("cnc: step %s failed on tag %v: %w", sc.meta.name, tag, err))
			return
		}
	}
	if err := sc.fn(tag); err != nil {
		sc.failed(tag, fmt.Errorf("cnc: step %s failed on tag %v: %w", sc.meta.name, tag, err))
		return
	}
	// Successful completion: release the declared read set exactly once,
	// however many aborted or retried attempts preceded this one.
	if sc.getsApp != nil {
		bufp := g.takeDeps()
		ds := sc.getsApp(tag, *bufp)
		for _, d := range ds {
			d.store.release(d.key)
		}
		*bufp = ds
		g.putDeps(bufp)
	}
	g.stats.done.Add(1)
}

// failed handles one failed execution attempt: re-dispatch while the
// instance has retry budget left (see WithRetry for why re-execution is
// sound), otherwise record the error on the graph. The re-dispatch adds
// outstanding work before the current attempt retires its own unit, so the
// graph cannot quiesce in between.
func (sc *StepCollection[T]) failed(tag T, err error) {
	if sc.takeRetry(tag) {
		sc.g.stats.retries.Add(1)
		sc.dispatch(tag)
		return
	}
	sc.g.fail(err)
}

// takeRetry consumes one unit of tag's retry budget, reporting false when
// the budget (the collection's, or — only when the collection never called
// WithRetry — the graph default) is exhausted.
func (sc *StepCollection[T]) takeRetry(tag T) bool {
	limit := sc.retry
	if limit == retryUnset {
		limit = sc.g.retry
	}
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
	prescribed atomic.Pointer[[]prescribable[T]]

	mu      sync.Mutex
	memoize bool
	seen    map[T]struct{}
}

// prescribable is the tag collection's view of a prescribed step
// collection: instance creation plus the memory-throttling admission
// probes.
type prescribable[T comparable] interface {
	instance(T, *Burst)
	readyFor(T) bool
	freeableFor(T) int64
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
	var cur []prescribable[T]
	if p := tc.prescribed.Load(); p != nil {
		cur = *p
	}
	next := make([]prescribable[T], len(cur)+1)
	copy(next, cur)
	next[len(cur)] = sc
	tc.prescribed.Store(&next)
	tc.mu.Unlock()
}

func (tc *TagCollection[T]) prescribedList() []prescribable[T] {
	if p := tc.prescribed.Load(); p != nil {
		return *p
	}
	return nil
}

// Put puts a tag, creating an instance of every prescribed step collection.
// It may be called from the environment function or from inside steps.
func (tc *TagCollection[T]) Put(tag T) { tc.putInto(tag, nil) }

// PutInto is Put with batched dispatch: instances whose dependencies are
// already satisfied are appended to bu instead of being pushed (and waking
// a worker) one at a time; they hit the queue when the burst flushes. The
// semantics are otherwise exactly Put's — memoization, hooks and statistics
// all apply, and outstanding-work accounting happens immediately, so the
// graph cannot quiesce while the burst is open.
func (tc *TagCollection[T]) PutInto(tag T, bu *Burst) { tc.putInto(tag, bu) }

func (tc *TagCollection[T]) putInto(tag T, bu *Burst) {
	tc.g.checkRunning()
	if h := tc.g.hooks; h != nil && h.DropTag != nil && h.DropTag(tc.name, tag) {
		return // injected fault: the tag is lost before memoization sees it
	}
	if tc.memoize {
		tc.mu.Lock()
		if _, dup := tc.seen[tag]; dup {
			tc.mu.Unlock()
			return
		}
		tc.seen[tag] = struct{}{}
		tc.mu.Unlock()
	}
	tc.g.stats.tagsPut.Add(1)
	for _, sc := range tc.prescribedList() {
		sc.instance(tag, bu)
	}
}

// WithTagBytes declares how many bytes of live memory a tag admitted
// through PutThrottled will eventually occupy (typically the size of the
// item its base-case step puts; 0 for tags that only expand control flow).
// Under a memory limit, PutThrottled reserves that budget at admission and
// item puts convert reservations to live bytes as the data materialises —
// so backpressure paces the environment on the memory its puts *commit to*,
// not only on items already produced. Declare before Run.
func (tc *TagCollection[T]) WithTagBytes(fn func(T) int) *TagCollection[T] {
	tc.tagBytes = fn
	tc.g.structMu.Lock()
	tc.meta.tagBytes = true
	tc.g.structMu.Unlock()
	return tc
}

// PutThrottled is Put with memory backpressure: under Graph.WithMemoryLimit
// a tag whose WithTagBytes cost does not fit under the budget — or whose
// prescribed steps' declared gets are not all readable yet — is deferred
// rather than put, and admitted later as get-count garbage collection frees
// items and dependencies arrive. The call itself never blocks, so steps and
// environments can put through it freely; the graph stays open until every
// deferred tag is admitted. Without a limit (or for tags with zero declared
// cost) it is exactly Put. See WithMemoryLimit for the degrade-and-report
// behaviour when the budget can never clear. Best used with unmemoized
// collections: a deduplicated tag's reservation is never converted and
// would over-throttle later puts.
func (tc *TagCollection[T]) PutThrottled(tag T) { tc.putThrottledInto(tag, nil) }

// PutThrottledInto is PutThrottled with batched dispatch: tags admitted
// immediately (no memory limit, or zero declared cost, or budget available)
// go through bu like PutInto; a deferred tag is admitted later through the
// unbatched path, since its admission time is not under the putter's
// control.
func (tc *TagCollection[T]) PutThrottledInto(tag T, bu *Burst) { tc.putThrottledInto(tag, bu) }

func (tc *TagCollection[T]) putThrottledInto(tag T, bu *Burst) {
	if !tc.g.acct.limited() {
		tc.putInto(tag, bu)
		return
	}
	tc.g.checkRunning()
	var cost int64
	if tc.tagBytes != nil {
		cost = int64(tc.tagBytes(tag))
	}
	if cost == 0 {
		// Control-only tags occupy no budget and are never deferred.
		tc.putInto(tag, bu)
		return
	}
	tc.g.acct.enqueue(cost,
		func() bool { return tc.readyFor(tag) },
		func() int64 { return tc.freeableFor(tag) },
		func() { tc.Put(tag) })
}

// readyFor reports whether every prescribed step's declared gets for tag
// are already readable.
func (tc *TagCollection[T]) readyFor(tag T) bool {
	for _, sc := range tc.prescribedList() {
		if !sc.readyFor(tag) {
			return false
		}
	}
	return true
}

// freeableFor reports the accounted bytes the prescribed steps for tag
// would free on completion.
func (tc *TagCollection[T]) freeableFor(tag T) int64 {
	var n int64
	for _, sc := range tc.prescribedList() {
		n += sc.freeableFor(tag)
	}
	return n
}

// PutRange puts the tags mk(lo), mk(lo+1), …, mk(hi-1) — the Intel CnC
// tag-range pattern for prescribing dense index spaces in one call. When
// the graph has no memory limit (or the collection declares no tag cost)
// the whole range is dispatched as one burst: a single batched queue push
// and one wakeup pass instead of hi-lo of each. Under an active memory
// limit with declared tag bytes, each put is throttled individually so the
// range honours the budget exactly as before.
func (tc *TagCollection[T]) PutRange(lo, hi int, mk func(int) T) {
	if tc.g.acct.limited() && tc.tagBytes != nil {
		for i := lo; i < hi; i++ {
			tc.PutThrottled(mk(i))
		}
		return
	}
	bu := tc.g.NewBurst()
	for i := lo; i < hi; i++ {
		tc.putInto(mk(i), bu)
	}
	bu.Flush()
}

// itemShards is the stripe count of an ItemCollection's key space (a power
// of two so shard selection is a mask). 16 stripes ≈ 2× the largest worker
// counts the real runs here use, which keeps the probability that two
// concurrent tile operations collide on a stripe low while the per-shard
// constant cost (4 small maps) stays negligible; see DESIGN.md §5e.
const itemShards = 16

// itemShard is one stripe of an ItemCollection: the full
// items/remaining/freed/waiters map set for the keys that hash to it, under
// its own lock. Every collection operation is single-key, so puts and gets
// on different tiles proceed on different stripes without serialising.
type itemShard[K comparable, V any] struct {
	mu        sync.Mutex
	items     map[K]V
	remaining map[K]int      // live get-counts (only when getCount != nil)
	freed     map[K]struct{} // keys whose value was reclaimed
	waiters   map[K][]waiter
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

// waiter is one parked consumer of a missing item: a tuned dependency latch
// or a speculatively-aborted instance. The label is materialised lazily
// through waitLabeler — deadlock reports and Blocked snapshots are the only
// readers, so the common case (the item arrives) never pays the
// fmt.Sprintf. notify takes the burst of the Put that woke it (nil when
// unbatched) so a put that satisfies many waiters re-dispatches them with
// one queue push.
type waiter struct {
	who    waitLabeler
	notify func(*Burst)
}

// waitLabeler names a parked instance for deadlock reports. It is
// implemented by depLatch (lazily) and by fixedLabel for the speculative
// abort path, whose label is already materialised when it parks.
type waitLabeler interface{ waitLabel() string }

type fixedLabel string

func (s fixedLabel) waitLabel() string { return string(s) }

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
		sh := &ic.shards[i]
		sh.items = make(map[K]V)
		sh.remaining = make(map[K]int)
		sh.freed = make(map[K]struct{})
		sh.waiters = make(map[K][]waiter)
	}
	g.structMu.Lock()
	g.items = append(g.items, meta)
	g.structMu.Unlock()
	g.registerReporter(ic)
	return ic
}

// shardOf maps a key to its stripe.
func (ic *ItemCollection[K, V]) shardOf(k K) *itemShard[K, V] {
	return &ic.shards[maphash.Comparable(ic.hashSeed, k)&(itemShards-1)]
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

func (ic *ItemCollection[K, V]) collName() string { return ic.name }

// Key builds a Dep naming item k of this collection, for WithDeps
// declarations.
func (ic *ItemCollection[K, V]) Key(k K) Dep { return Dep{store: ic, key: k} }

// Put stores the item under key k and wakes every step instance parked on
// it. Re-putting a key — freed or not — violates CnC's dynamic single
// assignment rule and fails the graph. Under a memory limit the put waits
// for byte budget (see Graph.WithMemoryLimit) before storing.
func (ic *ItemCollection[K, V]) Put(k K, v V) {
	ic.putInto(k, v, nil)
}

// PutInto is Put with its backend mirror and waiter wakeups staged into the
// burst instead of performed immediately: a phase that puts N items through
// one burst crosses the backend seam (for internal/dist, the socket) as one
// PutBatch call, and wakes parked workers once for the whole burst.
// Ordering is preserved — Burst.Flush delivers the batched mirror before
// any staged wakeup reaches the run queue — but consumers polling via
// TryGet can observe an item before its mirror lands, the same
// local-insert-precedes-mirror window plain Put already has. The item is
// locally visible (and counted) when PutInto returns; only the mirror and
// the wakeups wait for Flush. Like every burst user: always Flush.
func (ic *ItemCollection[K, V]) PutInto(k K, v V, bu *Burst) {
	ic.putInto(k, v, bu) // nil bu degrades to plain Put
}

func (ic *ItemCollection[K, V]) putInto(k K, v V, bu *Burst) {
	ic.g.checkRunning()
	if h := ic.g.hooks; h != nil && h.BeforeItemPut != nil {
		h.BeforeItemPut(ic.name, k)
	}
	size := ic.sizeBytes(k)
	// Admission before the shard lock: the budget wait must not block
	// other gets/puts/frees on this collection (frees are what clear it).
	ic.g.acct.admitItem(size)
	sh := ic.shardOf(k)
	sh.mu.Lock()
	if _, wasFreed := sh.freed[k]; wasFreed {
		sh.mu.Unlock()
		ic.g.acct.refund(size)
		err := fmt.Errorf("cnc: single-assignment violation: item %s[%v] re-put after its get-count freed it: %w",
			ic.name, k, &UseAfterFreeError{Collection: ic.name, Key: k})
		if dc := ic.g.discipline; dc != nil {
			err = fmt.Errorf("%v; %w", dc.DoublePut(ic.name, k, fmt.Sprint(v)), err)
		}
		ic.g.fail(err)
		return
	}
	if _, dup := sh.items[k]; dup {
		sh.mu.Unlock()
		ic.g.acct.refund(size)
		var err error = fmt.Errorf("cnc: single-assignment violation: item %s[%v] put twice", ic.name, k)
		if dc := ic.g.discipline; dc != nil {
			// The checker names both writers and whether the values differ.
			err = dc.DoublePut(ic.name, k, fmt.Sprint(v))
		}
		ic.g.fail(err)
		return
	}
	sh.items[k] = v
	freeNow := false
	if ic.getCount != nil {
		switch n := ic.getCount(k); {
		case n < 0:
			// Leave the item live (un-counted) and fail: a negative count
			// is a declaration bug, not a freeing instruction.
			ic.g.fail(fmt.Errorf("cnc: item %s[%v] declared negative get-count %d", ic.name, k, n))
		case n == 0:
			freeNow = true
		default:
			sh.remaining[k] = n
		}
	}
	ws := sh.waiters[k]
	delete(sh.waiters, k)
	if freeNow {
		// Declared consumer-free: reclaim immediately. Parked waiters are
		// still woken — their re-read then reports use-after-free, which is
		// the deterministic surface of a get-count declared too low.
		delete(sh.items, k)
		sh.freed[k] = struct{}{}
	}
	sh.mu.Unlock()
	ic.g.stats.itemsPut.Add(1)
	ic.puts.Add(1)
	if dc := ic.g.discipline; dc != nil {
		declared := -1
		if ic.getCount != nil {
			declared = ic.getCount(k)
		}
		dc.RecordPut(ic.name, k, declared, fmt.Sprint(v))
	}
	if freeNow {
		ic.g.acct.free(size)
	}
	// Mirror to the external backend before any consumer can observe the
	// item: waiters woken below (and every later Get, whose local-presence
	// check this put just satisfied) may fetch the value remotely, so the
	// backend must hold it first — the distributed read-your-writes
	// ordering (see ItemBackend). With a caller burst (PutInto) the mirror
	// is staged instead; Burst.Flush delivers the whole batch before any
	// staged wakeup, preserving the same ordering batch-wide.
	if bu != nil {
		if ic.g.backend != nil {
			bu.addOp(ic.name, k, v)
		}
		for _, w := range ws {
			w.notify(bu)
		}
	} else {
		ic.g.backendPut(ic.name, k, v)
		if len(ws) > 0 {
			// Coalesce the wakeups: every waiter this put satisfies lands on
			// the queue in one batch with a single signalling pass, instead of
			// one push + one worker wake per waiter. (A lone waiter skips the
			// burst — a direct push is exactly as cheap.)
			var wbu *Burst
			if len(ws) > 1 {
				wbu = ic.g.NewBurst()
			}
			for _, w := range ws {
				w.notify(wbu)
			}
			if wbu != nil {
				wbu.Flush()
			}
		}
	}
	// A new item can make deferred throttled tags runnable.
	if ic.g.acct.pendingN.Load() > 0 {
		ic.g.acct.pump()
	}
}

// release decrements k's get-count, freeing the value at zero. It
// implements itemStore for StepCollection.WithGets; on collections without
// a get-count it is a no-op, so a shared read-set declaration can span
// counted and uncounted collections.
func (ic *ItemCollection[K, V]) release(key any) {
	if ic.getCount == nil {
		return
	}
	k, ok := key.(K)
	if !ok {
		ic.g.fail(fmt.Errorf("cnc: release key %v has wrong type for collection %s", key, ic.name))
		return
	}
	sh := ic.shardOf(k)
	sh.mu.Lock()
	if _, wasFreed := sh.freed[k]; wasFreed {
		sh.mu.Unlock()
		err := fmt.Errorf("cnc: over-release of item %s[%v]: get-count reached zero before its last declared reader (declared count too low)",
			ic.name, k)
		if dc := ic.g.discipline; dc != nil {
			err = fmt.Errorf("%v; %w", dc.Overdraw(ic.name, k, "release"), err)
		}
		ic.g.fail(err)
		return
	}
	rem, counted := sh.remaining[k]
	if !counted {
		if _, present := sh.items[k]; present {
			// Present but un-counted: the negative-count error path left it
			// pinned; the graph already failed.
			sh.mu.Unlock()
			return
		}
		sh.mu.Unlock()
		ic.g.fail(fmt.Errorf("cnc: release of item %s[%v] that was never put", ic.name, k))
		return
	}
	if dc := ic.g.discipline; dc != nil {
		dc.RecordRelease(ic.name, k)
	}
	if rem--; rem > 0 {
		sh.remaining[k] = rem
		sh.mu.Unlock()
		return
	}
	delete(sh.items, k)
	delete(sh.remaining, k)
	sh.freed[k] = struct{}{}
	sh.mu.Unlock()
	ic.g.acct.free(ic.sizeBytes(k))
}

// has implements the itemStore readiness probe: key is "ready" when its
// item is present — or already freed, in which case admitting the reader
// surfaces the deterministic use-after-free error instead of deferring the
// tag forever.
func (ic *ItemCollection[K, V]) has(key any) bool {
	k, ok := key.(K)
	if !ok {
		return true // let execution surface the type error
	}
	sh := ic.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, present := sh.items[k]; present {
		return true
	}
	_, wasFreed := sh.freed[k]
	return wasFreed
}

// freeableBytes implements the itemStore admission probe: the accounted
// size of key when one more release would free it (present with a
// remaining get-count of exactly 1), else 0.
func (ic *ItemCollection[K, V]) freeableBytes(key any) int64 {
	k, ok := key.(K)
	if !ok {
		return 0
	}
	sh := ic.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, present := sh.items[k]; !present {
		return 0
	}
	if rem, counted := sh.remaining[k]; !counted || rem != 1 {
		return 0
	}
	return ic.sizeBytes(k)
}

// Get returns the item stored under k, blocking in the CnC sense: when the
// item is missing, the calling step instance is aborted and re-executed
// after the item is put. Get must only be called from inside a step body.
// Reading an item that get-count garbage collection freed fails the graph
// with a deterministic UseAfterFreeError (the declared count was too low)
// instead of parking forever or returning stale data.
func (ic *ItemCollection[K, V]) Get(k K) V {
	sh := ic.shardOf(k)
	sh.mu.Lock()
	if v, ok := sh.items[k]; ok {
		sh.mu.Unlock()
		if dc := ic.g.discipline; dc != nil {
			dc.RecordGet(ic.name, k)
		}
		// With a backend installed the local value only proves existence;
		// the authoritative copy comes back over the wire (and must agree
		// in type — a mismatch is a codec bug, failed loudly).
		if rv, remote := ic.g.backendGet(ic.name, k, v); remote {
			tv, ok := rv.(V)
			if !ok {
				err := fmt.Errorf("cnc: item backend returned %T for %s[%v], want %T", rv, ic.name, k, v)
				ic.g.fail(err)
				panic(err) // unwinds the step like a failed Get; never retried into success
			}
			return tv
		}
		return v
	}
	if _, wasFreed := sh.freed[k]; wasFreed {
		sh.mu.Unlock()
		err := &UseAfterFreeError{Collection: ic.name, Key: k}
		if dc := ic.g.discipline; dc != nil {
			err.Overdraw = dc.Overdraw(ic.name, k, "get")
		}
		ic.g.fail(err)
		panic(err) // unwinds the step like a failed Get, but is never retried
	}
	sh.mu.Unlock()
	panic(&retrySignal{
		park: func(label string, requeue func(*Burst)) {
			sh.mu.Lock()
			if _, ok := sh.items[k]; ok {
				// The item arrived between TryGet and parking: requeue
				// immediately instead of waiting.
				sh.mu.Unlock()
				requeue(nil)
				return
			}
			ic.g.parked.Add(1)
			sh.waiters[k] = append(sh.waiters[k], waiter{who: fixedLabel(label), notify: func(bu *Burst) {
				ic.g.parked.Add(-1)
				requeue(bu)
			}})
			sh.mu.Unlock()
		},
	})
}

// TryGet is the non-blocking get (the paper's §IV-B ablation): it reports
// whether the item is present without aborting the step. Polling a freed
// item fails the graph (deterministic use-after-free, like Get) and reports
// the item as absent.
func (ic *ItemCollection[K, V]) TryGet(k K) (V, bool) {
	sh := ic.shardOf(k)
	sh.mu.Lock()
	v, ok := sh.items[k]
	if !ok {
		if _, wasFreed := sh.freed[k]; wasFreed {
			sh.mu.Unlock()
			err := &UseAfterFreeError{Collection: ic.name, Key: k}
			if dc := ic.g.discipline; dc != nil {
				err.Overdraw = dc.Overdraw(ic.name, k, "get")
			}
			ic.g.fail(err)
			var zero V
			return zero, false
		}
	}
	sh.mu.Unlock()
	if ok {
		if dc := ic.g.discipline; dc != nil {
			dc.RecordGet(ic.name, k)
		}
	}
	return v, ok
}

// Len returns the number of items currently live — put and not yet freed
// by get-count garbage collection. For the total ever put, use Puts.
func (ic *ItemCollection[K, V]) Len() int {
	n := 0
	for i := range ic.shards {
		sh := &ic.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// subscribe implements itemStore for tuned scheduling.
func (ic *ItemCollection[K, V]) subscribe(key any, who waitLabeler, notify func(*Burst)) bool {
	k, ok := key.(K)
	if !ok {
		// Fail the graph but treat the dependency as satisfied so the
		// countdown still completes and the graph quiesces.
		ic.g.fail(fmt.Errorf("cnc: dependency key %v has wrong type for collection %s", key, ic.name))
		return false
	}
	sh := ic.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, present := sh.items[k]; present {
		return false
	}
	if _, wasFreed := sh.freed[k]; wasFreed {
		// A tuned instance declared a dependency on an already-freed item:
		// the get-count missed this consumer. Fail deterministically and
		// report the dependency as satisfied so the countdown completes and
		// the graph quiesces instead of parking forever.
		err := &UseAfterFreeError{Collection: ic.name, Key: k}
		if dc := ic.g.discipline; dc != nil {
			err.Overdraw = dc.Overdraw(ic.name, k, "get")
		}
		ic.g.fail(err)
		return false
	}
	sh.waiters[k] = append(sh.waiters[k], waiter{who: who, notify: notify})
	return true
}

// blockedInstances enumerates parked instances for deadlock reports.
func (ic *ItemCollection[K, V]) blockedInstances() []string {
	var out []string
	for i := range ic.shards {
		sh := &ic.shards[i]
		sh.mu.Lock()
		for k, ws := range sh.waiters {
			for _, w := range ws {
				out = append(out, fmt.Sprintf("%s <- %s[%v]", w.who.waitLabel(), ic.name, k))
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// retrySignal is the panic payload of a failed blocking Get. The requeue
// callback receives the burst of the Put that woke the instance (nil for an
// immediate requeue) so re-dispatches batch with the put's other wakeups.
type retrySignal struct {
	park func(label string, requeue func(*Burst))
}

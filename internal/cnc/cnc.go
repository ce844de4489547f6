// Package cnc is a Concurrent Collections (CnC) runtime in pure Go, modelled
// on the Intel CnC / TBB implementation the paper benchmarks (Budimlić et
// al., "Concurrent Collections", Scientific Programming 2010; paper §II).
//
// A CnC program is a graph of three kinds of collections:
//
//   - step collections: the computations, prescribed by tags;
//   - tag collections: control — putting a tag creates one instance of every
//     prescribed step collection, which eventually executes with that tag;
//   - item collections: data — single-assignment associative containers used
//     for all synchronisation between step instances.
//
// Blocking Get follows the Intel semantics the paper describes: a step
// instance executes speculatively, and when a Get finds its item missing the
// instance is aborted, parked, and later re-scheduled from scratch. Steps
// must therefore be written gets-first (pure reads), then compute, then
// puts — exactly the shape of the paper's Listing 5. Intel CnC parks on the
// one item that missed, so an instance with k missing inputs aborts k times.
// Here the runtime reads a declared read set (WithGets, which get-count GC
// needs anyway) before the body runs: a missing input aborts the attempt
// before it starts, without unwinding anything, and the instance waits on
// the declared items still missing, one at a time, and is re-executed once.
// An undeclared Get that misses unwinds the body and waits for that item.
//
// An item is a write-once cell (empty → present → freed). Whatever waits
// on, probes or releases an item holds the cell, not the key: only Put, Get,
// TryGet and Key look anything up — by hash, or, in collections that share
// a numbered key space (NumberKeys), by the key's number.
//
// A tuned step (WithTunedGetsAppend) makes its declared read set the
// instance's dependencies, the pre-scheduling tuner of the paper's tuned
// variants (§III-D): the runtime resolves the read set when the tag is put,
// the instance waits on the items still missing, and once none is it is
// dispatched like any ready instance — never speculatively, so it never
// aborts. Tuner-CnC and Manual-CnC share this one launch rule; they differ
// in who puts the base tags (the recursion's steps, or the environment up
// front; see gep.Flow.Run).
//
// The runtime dynamically enforces the single-assignment rule and, because
// CnC programs are deterministic, reports deadlock precisely: when the graph
// quiesces with parked instances, Run returns a DeadlockError listing every
// blocked step and the item it is waiting for.
//
// # Dispatch
//
// Step instances are queued in the shared work-stealing core (exec.Lanes:
// one lane per logical worker, leased from an exec.Executor for the duration
// of a run), under the one discipline fork-join uses too: units spawned on a
// lane are taken newest-first by its owner and oldest-first by thieves,
// units enqueued on it oldest-first by everyone, after the spawned ones.
// This package only chooses placement, TBB's spawn/enqueue split. An
// attempt's body gets the Burst of the lane it runs on (one per lane, owned
// by the graph; the only kind there is): the tags it puts there and the
// successors its item puts wake through it are spawned on that lane once the
// attempt returns, so the worker that produced a tile runs its readers next,
// while the tile is still in cache. Everything else — environment puts,
// plain Puts from a step, retries, admissions — is enqueued round-robin, one
// push per instance, so it runs after the work already spawned or enqueued.
// That is what lets a non-blocking step, re-putting its own tag behind the
// producers it polls for, yield to them even on one worker. A step instance
// is one value from launch to release, carved from its collection's slabs
// and recycled through its free lists (its lane's when an attempt put it):
// the queued unit, the waiter on the cells it misses, the holder of its
// read set and, under a memory limit, its own admission record. It never
// holds a worker while it waits — a
// missing input aborts it and the Put of the last item it is waiting for
// requeues it — and an attempt's dispatches reach its lane together, with
// one lock and at most one wakeup.
//
// # Fault tolerance and cancellation
//
// Step bodies run under panic containment: a panicking step fails its own
// instance (and, absent a retry budget, the run) with an error naming the
// step and tag — it never kills a worker. RunContext adds cooperative
// cancellation: when the context is cancelled the graph stops starting new
// work, drains in-flight instances, and returns ctx.Err() with no leaked
// goroutines. Because steps are written gets-first/puts-last, a failed
// attempt has no side effects before its first Put, so re-execution is
// sound: Graph.SetRetry re-dispatches failed attempts — errors, panics, or
// injected hook failures — up to a budget. Hooks (SetHooks) expose generic
// interception points (before-step, drop-tag, before-item-put) used by the
// internal/chaos harness to inject faults, and Graph.Blocked exposes the
// live wait state for a progress watch (bench.Check) that tells livelock
// (workers busy, no data produced) from the quiesced deadlock the runtime
// already reports itself.
//
// # Bounded memory
//
// Item collections are single-assignment, so without reclamation a run
// holds every item it ever produced. ItemCollection.WithGetCount declares
// each item's consumer count (Intel CnC's get-count tuner): the runtime
// frees the value when the count reaches zero and turns any later read into
// a deterministic UseAfterFreeError instead of silent corruption.
// Decrements are driven by StepCollection.WithGets — the declared read set
// of a step instance, released once when the instance completes
// successfully — which is what makes get-counts compose with speculative
// abort re-reads and retried re-execution: an aborted or failed attempt
// releases nothing, so re-reading is always safe and nothing is
// double-decremented. A per-graph accountant surfaces
// LiveItems/PeakLiveItems/ItemsFreed/PeakLiveBytes in Stats, and
// Graph.WithMemoryLimit adds backpressure: the step instances of a throttled
// tag put (TagCollection.PutThrottled) that do not fit the budget, or whose
// declared gets are not all present, are deferred — the putter never blocks.
// A deferred instance waits on the cells of its missing items like any tuned
// one, and is admitted, in the serial elision's key order, once they are
// present and get-count GC has freed room. If the graph idles with instances
// still deferred, the runtime force-admits the first runnable one rather
// than deadlocking, and counts it in Stats.BackpressureStalls; Graph.Blocked
// tells what the graph waited on.
package cnc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dpflow/internal/determinacy"
	"dpflow/internal/exec"
)

// Stats is a snapshot of runtime activity, useful both for tests and for
// calibrating the scheduling-overhead constants of the simulation model.
type Stats struct {
	TagsPut       uint64 // tags put across all tag collections
	ItemsPut      uint64 // items put across all item collections
	StepsStarted  uint64 // execution attempts begun, aborted ones included
	StepsDone     uint64 // step instances completed successfully
	Aborts        uint64 // attempts aborted on a missing input (≤ 1 per instance for declared reads)
	Requeues      uint64 // aborted instances re-scheduled once nothing they wait for is missing
	TriggeredRuns uint64 // tuned instances dispatched once their declared reads are present
	Retries       uint64 // failed attempts re-executed under a retry budget
	// InlineRuns is always 0: every instance, tuned or not, runs on a
	// leased worker, never on the goroutine that put its tag. The field
	// stays for the readers that report it (dpperf's cnc.inline_runs).
	InlineRuns uint64

	// Dispatch-layer counters (exec.Lanes.Counters). The seed runtime
	// broadcast to every worker on every push — an implied workers×puts wake
	// bill; the work-stealing lanes wake at most one worker per push, so
	// Wakeups is bounded by the number of dispatches.
	Steals       uint64 // work units taken from another worker's lane
	FailedProbes uint64 // steal probes that found an empty victim lane
	Wakeups      uint64 // targeted wake signals sent to parked workers

	// Item-backend counter (see Graph.WithItemBackend): puts the external
	// store accepted. Zero without a backend; nothing is ever read from it.
	BackendPuts uint64

	// Memory accounting (see ItemCollection.WithGetCount and
	// Graph.WithMemoryLimit). Bytes are counted only for collections with a
	// WithSizeOf hint; items are counted for every collection.
	LiveItems     int64 // items put and not yet freed by get-count GC
	PeakLiveItems int64 // high-water mark of LiveItems
	ItemsFreed    int64 // items freed when their get-count reached zero
	LiveBytes     int64 // bytes of live items (per the SizeOf hints)
	PeakLiveBytes int64 // high-water mark of LiveBytes
	// BackpressureWaits counts step instances of throttled puts that were
	// deferred; BackpressureStalls counts forced admissions: deferred
	// instances admitted because the graph went idle and no free could ever
	// land. The memory contract is the implication BackpressureStalls == 0 ⇒
	// PeakLiveBytes ≤ limit. Not the converse: a forced admission can be for
	// a growing instance's headroom, with the bytes still inside the limit.
	BackpressureWaits  int64
	BackpressureStalls int64
}

// DeadlockError reports a graph that quiesced with parked step instances.
type DeadlockError struct {
	// Blocked lists one "step@tag <- coll[key]" entry per parked instance
	// and item it is still waiting for.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("cnc: deadlock: %d step instance(s) blocked: %s",
		len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// ErrNotRunning is returned or panicked when collections are used outside
// Graph.Run.
var ErrNotRunning = errors.New("cnc: graph is not running")

// ErrConcurrentRun is returned when Run/RunContext is called while another
// run of the same Graph is still in flight. Graphs are single-run objects;
// server clients that want N concurrent jobs build N graphs — they all
// multiplex onto the shared executor anyway, so there is nothing to gain
// (and a pile of shared mutable collection state to lose) from racing two
// runs of one instance.
var ErrConcurrentRun = errors.New("cnc: concurrent Run on the same Graph")

// ErrFinished is returned when Run/RunContext is called on a Graph that
// already completed a run.
var ErrFinished = errors.New("cnc: Run called twice on the same Graph")

// Graph is a CnC context: it owns the collections, the dispatch lanes and
// the quiescence state. Build the collections, declare their relationships,
// then call Run exactly once with an environment function that performs the
// initial puts.
//
// Graphs do not own worker goroutines: a run leases `workers` logical
// workers from a shared exec.Executor (the process-wide exec.Default
// unless WithExecutor overrides it), so N concurrent graphs multiplex onto
// one GOMAXPROCS-sized pool instead of oversubscribing the machine.
// Workers() is therefore a logical-concurrency cap — the number of
// dispatch lanes — not a goroutine count.
type Graph struct {
	// What follows up to the first pad is read-mostly while the graph runs:
	// attempts read it, nothing rewrites it, so every lane keeps the line.
	name    string
	workers int

	// executor is write-before-Run configuration: the shared pool this
	// graph leases logical workers from; nil means exec.Default().
	executor *exec.Executor

	// lanes is the run's work pool in the shared scheduling core, built
	// with the data-flow policy (see "Dispatch" in the package comment).
	lanes     *exec.Lanes
	running   atomic.Bool
	finished  atomic.Bool
	cancelled atomic.Bool

	// hooks, retry, discipline and backend are write-before-Run
	// configuration; the runtime reads them without synchronisation once
	// running.
	hooks      *Hooks
	retry      int
	discipline *determinacy.DisciplineChecker
	backend    ItemBackend

	// bursts holds the attempts', one per lane (see instance.Run), each
	// with its lane's run counters.
	bursts []laneBurst
	// numbered names the cells of the graph's numbered key space
	// (NumberKeys) by number: a step instance keeps its reads of them as
	// numbers.
	numbered func(i uint32) Dep

	// The graph-wide counters each get a line: outstanding changes once per
	// attempt, envKids and stats with the puts made outside an attempt.
	_           pad
	outstanding atomic.Int64
	_           pad
	envKids     atomic.Uint64 // tags put from outside an attempt (acquire)
	stats       struct {
		counts               // puts made outside an attempt
		retries, backendPuts atomic.Uint64
	}
	_ pad

	// acct tracks live items/bytes and implements the WithMemoryLimit
	// backpressure (see accountant.go).
	acct accountant

	// backendBusy gauges operations currently inside a backend call (see
	// Graph.BackendBusy — what defers bench.Check's stall verdict).
	backendBusy atomic.Int64

	quiesceMu   sync.Mutex
	quiesceCond *sync.Cond

	// scratch is the buffer a read set is resolved into outside an attempt.
	scratch atomic.Pointer[[]Dep]

	failMu sync.Mutex
	err    error

	// Static graph structure, for Describe/Dot and deadlock reports.
	structMu     sync.Mutex
	steps        []*stepMeta
	tags         []*tagMeta
	items        []*itemMeta
	hasGetCounts bool
}

// pad keeps the fields on either side of it off each other's cache line.
type pad [64]byte

// counts is one set of the run counters Stats sums: a lane's, written only
// by the attempt running on it, or the graph's, for what happens outside an
// attempt. Each sum is monotone, since each set's is, but parked's: that
// gauges the instances waiting on a cell, a wait counted in the set of the
// lane it waits from and its launch in that of the put that woke it, so a
// set's may be negative, never the sum (Graph.parked).
type counts struct {
	tagsPut, itemsPut, started, done    atomic.Int64
	aborts, requeues, triggered, parked atomic.Int64
}

// counts returns the run counters of bu's lane, or the graph's for a nil
// burst.
func (g *Graph) counts(bu *Burst) *counts {
	if bu != nil {
		return &bu.counts
	}
	return &g.stats.counts
}

// add adds d to n, a counter of bu's set (Graph.counts). A lane's set has
// one writer at a time, the attempt its lane's claim runs, so a load and a
// store do; the graph's, for a nil burst, takes an Add.
func add(bu *Burst, n *atomic.Int64, d int64) {
	if bu == nil {
		n.Add(d)
		return
	}
	n.Store(n.Load() + d)
}

// addTo adds the set to s.
func (c *counts) addTo(s *Stats) {
	s.TagsPut += uint64(c.tagsPut.Load())
	s.ItemsPut += uint64(c.itemsPut.Load())
	s.StepsStarted += uint64(c.started.Load())
	s.StepsDone += uint64(c.done.Load())
	s.Aborts += uint64(c.aborts.Load())
	s.Requeues += uint64(c.requeues.Load())
	s.TriggeredRuns += uint64(c.triggered.Load())
}

// parked returns the number of instances waiting on a cell.
func (g *Graph) parked() int64 {
	n := g.stats.parked.Load()
	for i := range g.bursts {
		n += g.bursts[i].counts.parked.Load()
	}
	return n
}

type stepMeta struct {
	name               string
	prescribedBy       []string
	consumes, produces []string
	releases           bool // WithGets declared: frees its reads on completion
}

type tagMeta struct {
	name     string
	tagBytes bool // WithTagBytes declared: throttled puts reserve budget
}

type itemMeta struct {
	name     string
	getCount bool // WithGetCount declared: items freed after their last read
	sizeOf   bool // WithSizeOf declared: items charge bytes to the accountant
	// blocked walks the collection's cells for the instances waiting on
	// them (ItemCollection.blockedInstances).
	blocked func() []string
}

// NewGraph creates a graph with the given number of workers (minimum 1).
func NewGraph(name string, workers int) *Graph {
	if workers < 1 {
		workers = 1
	}
	g := &Graph{name: name, workers: workers, bursts: make([]laneBurst, workers)}
	for i := range g.bursts {
		g.bursts[i].lane = i
	}
	g.acct.g = g
	g.quiesceCond = sync.NewCond(&g.quiesceMu)
	// Deterministic steal seed: runs are reproducible for a given graph
	// shape, and CnC determinism holds under any victim order anyway.
	g.lanes = exec.NewLanes(workers, 1)
	return g
}

// WithExecutor selects the shared executor the run leases its logical
// workers from; nil (the default) means the process-wide exec.Default().
// Dedicated executors are for harnesses that pin a physical worker count
// (perf snapshots) and for tests that need goroutine isolation.
// Write-before-Run configuration, like SetHooks.
func (g *Graph) WithExecutor(e *exec.Executor) *Graph {
	g.executor = e
	return g
}

// WithDisciplineCheck installs a dataflow-discipline checker: every item
// put, get and release is attributed to the step instance (or environment)
// that issued it, double puts report both writers and whether their values
// differ, get-count overdraws name the over-reading step alongside the
// steps that consumed the budget, and the checker's Fingerprint backs the
// post-run determinism audit (chaos.DeterminismAudit). Off (nil, the
// default) the only cost is a nil check per operation. Write-before-Run
// configuration, like SetHooks.
func (g *Graph) WithDisciplineCheck(dc *determinacy.DisciplineChecker) *Graph {
	g.discipline = dc
	return g
}

// DisciplineChecker returns the checker installed by WithDisciplineCheck,
// or nil.
func (g *Graph) DisciplineChecker() *determinacy.DisciplineChecker { return g.discipline }

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// Workers returns the graph's logical-concurrency cap: the number of
// dispatch lanes the run leases from the shared executor. It is not a
// goroutine count — physical workers belong to the executor.
func (g *Graph) Workers() int { return g.workers }

// Stats returns a snapshot of the activity counters. It is safe to call
// concurrently with a run — every counter is read atomically, the run
// counters summed over the lanes — which is how the dpserve /metrics
// endpoint scrapes live jobs.
func (g *Graph) Stats() Stats {
	mem := g.acct.snapshot()
	steals, failedProbes, wakeups := g.lanes.Counters()
	s := Stats{
		LiveItems:          mem.liveItems,
		PeakLiveItems:      mem.peakItems,
		ItemsFreed:         mem.freed,
		LiveBytes:          mem.liveBytes,
		PeakLiveBytes:      mem.peakBytes,
		BackpressureWaits:  mem.waits,
		BackpressureStalls: mem.stalls,

		Retries: g.stats.retries.Load(),

		Steals:       steals,
		FailedProbes: failedProbes,
		Wakeups:      wakeups,

		BackendPuts: g.stats.backendPuts.Load(),
	}
	g.stats.addTo(&s)
	for i := range g.bursts {
		g.bursts[i].counts.addTo(&s)
	}
	return s
}

// Run starts the workers, invokes env — which performs the initial item and
// tag puts, playing the role of the CnC environment — and blocks until the
// graph quiesces. It returns the first error recorded during execution
// (single-assignment violation, step error, or deadlock). Run may be called
// only once per graph.
func (g *Graph) Run(env func()) error {
	return g.RunContext(context.Background(), env)
}

// RunContext is Run with cooperative cancellation and deadlines. Workers
// observe the context between step dispatches: when ctx is cancelled the
// graph switches to drain mode — every already-queued and newly-scheduled
// step instance is retired without executing its body, so tags and items
// put by in-flight steps stop producing work and the graph quiesces
// promptly. The run then returns ctx.Err() (recorded as the first error,
// so it wins over the secondary deadlock report of the instances the
// cancellation starved) with no goroutine leaked. A step body already
// executing when the cancellation fires is never interrupted; env likewise
// runs on the calling goroutine and should observe ctx itself if it can
// block.
func (g *Graph) RunContext(ctx context.Context, env func()) error {
	if g.finished.Load() {
		return ErrFinished
	}
	if !g.running.CompareAndSwap(false, true) {
		return ErrConcurrentRun
	}

	// Lease the graph's logical workers from the shared executor, before the
	// environment's first put: every push notifies through the lanes' lease.
	ex := g.executor
	if ex == nil {
		ex = exec.Default()
	}
	lease := g.lanes.Lease(ex, g.name)

	// A context cancelled before the run starts must fail the run
	// deterministically: the cancellation callback races the executor
	// draining the graph (the shared pool is already awake), so check
	// synchronously before the first put.
	if err := ctx.Err(); err != nil {
		g.fail(err)
		g.cancelled.Store(true)
	}

	stopCancel := context.AfterFunc(ctx, func() {
		// Record the cancellation as the run's error (first error wins) and
		// switch the workers to drain mode.
		g.fail(ctx.Err())
		g.cancelled.Store(true)
		// Flush deferred throttled instances so drain mode can retire them;
		// otherwise their pending holds would keep the graph from quiescing.
		g.acct.pump()
	})

	// The environment counts as outstanding work while it runs so that the
	// graph cannot quiesce before the initial puts are complete.
	g.outstanding.Add(1)
	if env != nil {
		if dc := g.discipline; dc != nil {
			exit := dc.Enter("env")
			env()
			exit()
		} else {
			env()
		}
	}
	g.taskDone()

	g.quiesceMu.Lock()
	for g.outstanding.Load() > 0 {
		g.quiesceCond.Wait()
	}
	g.quiesceMu.Unlock()

	// Quiescence means the lanes are empty (every queued unit holds the
	// graph open), so closing the lease only waits for in-flight slot
	// claims to notice and return. finished is set before running so a
	// racing RunContext can never slip between the two guards.
	g.finished.Store(true)
	g.running.Store(false)
	lease.Close()
	stopCancel()

	// End-of-run backend barrier: a batching backend (internal/dist) may
	// still hold mirrored puts, or checks of them, in its buffers; surface
	// any such error as the run's error.
	g.flushBackend()

	if g.parked() > 0 {
		// The cancellation wins over the deadlock of the instances it
		// starved even when the cancellation callback has not run yet: the
		// drained graph can quiesce before it does.
		if err := ctx.Err(); err != nil {
			g.fail(err)
		}
		g.fail(&DeadlockError{Blocked: g.Blocked()})
	}
	g.failMu.Lock()
	defer g.failMu.Unlock()
	return g.err
}

func (g *Graph) fail(err error) {
	g.failMu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.failMu.Unlock()
}

// schedule enqueues a runnable step instance on the stealable lanes.
func (g *Graph) schedule(run exec.Unit) {
	g.outstanding.Add(1)
	g.lanes.Push(run)
}

// Burst accumulates the dispatches of one attempt: the tags its body puts
// through TagCollection.PutInto / PutThrottledInto and the waiters its item
// puts through ItemCollection.PutInto satisfy. A body registered with
// NewStepCollectionInto gets its attempt's burst, one per lane and owned by
// the graph; the runtime flushes it when the attempt returns, spawning its
// units on that lane with one lock and at most one wakeup. The body must
// not keep it or hand it to another goroutine. Outside an attempt there is
// no burst: a nil one dispatches each instance with one enqueue.
//
// A staged dispatch takes no outstanding-work hold of its own: the
// attempt's unit holds the graph open until the flush counts them all, so
// an attempt's staged dispatches can never let the graph quiesce early.
type Burst struct {
	rs []exec.Unit
	// scratch is the buffer a read set is resolved into in the attempt.
	scratch []Dep
	// The attempt's key, its bits in use, and the tags it has put so far.
	key   uint64
	kbits uint8
	kids  uint64
	lane  int // the lane's index, in the step collections' free lists too
	// counts are the lane's run counters.
	counts counts
}

// laneBurst is an attempt's burst followed by a cache line of padding: each
// lane's worker rewrites its burst and counters on every attempt, so
// neighbouring lanes' bursts must not share a line.
type laneBurst struct {
	Burst
	_ pad
}

// flush ends the attempt on slot: it spawns the accumulated dispatches on
// slot's lane, in put order, and hands them the attempt's unit of
// outstanding work — n of them take n−1 more before the push, so one takes
// no atomic at all — or, with none staged, retires the unit.
func (bu *Burst) flush(g *Graph, slot int) {
	n := len(bu.rs)
	if n == 0 {
		g.taskDone()
		return
	}
	if n > 1 {
		g.outstanding.Add(int64(n - 1))
	}
	g.lanes.PushTo(slot, bu.rs...)
	clear(bu.rs)
	bu.rs = bu.rs[:0]
	g.acct.retired()
}

// add appends one dispatch to the burst.
func (bu *Burst) add(run exec.Unit) {
	bu.rs = append(bu.rs, run)
}

// taskDone retires one unit of outstanding work and signals quiescence when
// none remains.
func (g *Graph) taskDone() {
	if g.outstanding.Add(-1) == 0 {
		g.quiesceMu.Lock()
		g.quiesceCond.Broadcast()
		g.quiesceMu.Unlock()
		return
	}
	g.acct.retired()
}

func (g *Graph) checkRunning() {
	if !g.running.Load() {
		panic(ErrNotRunning)
	}
}

// HasGetCounts reports whether any item collection of the graph declared a
// get-count. A fully declared graph must quiesce with Stats.LiveItems == 0;
// harnesses (internal/chaos) use this to decide whether a nonzero count
// after a successful run is a leak.
func (g *Graph) HasGetCounts() bool {
	g.structMu.Lock()
	defer g.structMu.Unlock()
	return g.hasGetCounts
}

// Blocked returns a snapshot of what the graph is waiting for: one
// "step@tag <- coll[key]" entry per parked step instance and item it still
// waits for — the same form DeadlockError uses — and, under a memory limit,
// one "step@tag (deferred) <- coll[key]" entry per throttled instance not
// yet admitted and input it still lacks.
// It is safe to call while the graph runs, which is how bench.Check dumps
// the wait state of a stalled run; DeadlockError carries it at failure.
func (g *Graph) Blocked() []string {
	g.structMu.Lock()
	items := g.items
	g.structMu.Unlock()
	var out []string
	for _, m := range items {
		out = append(out, m.blocked()...)
	}
	sort.Strings(out)
	return out
}

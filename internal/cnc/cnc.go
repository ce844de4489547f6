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
// TryGet and Key look anything up.
//
// Two tuners reproduce the paper's tuned variants (§III-D). Both make the
// declared read set the instance's dependencies (WithTunedGetsAppend):
//
//   - TunedPrescheduled ("Tuner-CnC"): the runtime resolves the read set
//     when the tag is put; if all items are already available the step runs
//     inline on the putting goroutine, otherwise it is triggered — without
//     any speculative abort — when the last one arrives.
//   - TunedTriggered ("Manual-CnC" building block): instances are never run
//     speculatively; each waits on a countdown of its declared reads and is
//     scheduled when the count reaches zero.
//
// The runtime dynamically enforces the single-assignment rule and, because
// CnC programs are deterministic, reports deadlock precisely: when the graph
// quiesces with parked instances, Run returns a DeadlockError listing every
// blocked step and the item it is waiting for.
//
// # Dispatch
//
// Step instances are queued in the shared work-stealing core (exec.Lanes:
// one lane per logical worker, leased from an exec.Executor for the
// duration of a run); this package only chooses the policy. General work is
// placed round-robin and taken oldest-first by owner and thieves alike: the
// non-blocking schedule makes progress by re-putting its own tag behind the
// producers it polls for, which needs queue fairness (exec.OwnerFIFO). A
// step instance is one pooled value from launch to release: the queued unit,
// the waiter on the cells it misses, the holder of its read set and, under a
// memory limit, the entry admission launches. It never holds a worker while
// it waits — a missing input aborts it and the Put of the last item it is
// waiting for requeues it — and puts with a known census are batched
// (Burst) into one lock and at most one wakeup per touched lane.
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
// Graph.WithMemoryLimit adds backpressure: the step instances of a
// throttled tag put (TagCollection.PutThrottled) that do not fit the
// budget, or whose declared gets are not all present, are deferred — the
// putter never blocks. A deferred instance waits on the cells of its
// missing items like any tuned one, and is admitted, oldest first, once
// they are present and get-count GC has freed room. If the graph idles with
// instances still deferred, the runtime force-admits the oldest runnable
// one and reports through Hooks.OnBackpressureStall rather than
// deadlocking.
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
	InlineRuns    uint64 // instances run inline by the prescheduling tuner
	TriggeredRuns uint64 // instances released by a dependency countdown
	Retries       uint64 // failed attempts re-executed under a retry budget

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

	// backendBusy gauges operations currently inside a backend call (see
	// Graph.BackendBusy — what defers bench.Check's stall verdict).
	backendBusy atomic.Int64

	// acct tracks live items/bytes and implements the WithMemoryLimit
	// backpressure (see accountant.go).
	acct accountant

	outstanding atomic.Int64
	quiesceMu   sync.Mutex
	quiesceCond *sync.Cond
	parked      atomic.Int64

	// burstPool recycles Burst batch buffers (NewBurst/Flush), so the
	// steady state of a run performs no allocation in the dispatch layer.
	burstPool sync.Pool

	failMu sync.Mutex
	err    error

	stats struct {
		tagsPut, itemsPut, started, done    atomic.Uint64
		aborts, requeues, inline, triggered atomic.Uint64
		retries                             atomic.Uint64
		backendPuts                         atomic.Uint64
	}

	// Static graph structure, for Describe/Dot and deadlock reports.
	structMu     sync.Mutex
	steps        []*stepMeta
	tags         []*tagMeta
	items        []*itemMeta
	reporters    []blockedReporter
	hasGetCounts bool
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
}

// NewGraph creates a graph with the given number of workers (minimum 1).
func NewGraph(name string, workers int) *Graph {
	if workers < 1 {
		workers = 1
	}
	g := &Graph{name: name, workers: workers}
	g.acct.g = g
	g.quiesceCond = sync.NewCond(&g.quiesceMu)
	g.SetStealPolicy(exec.StealRandom)
	return g
}

// SetStealPolicy selects the victim order idle workers use when stealing
// (exec.StealRandom by default) by rebuilding the still-empty lanes.
// Write-before-Run configuration, like SetHooks.
func (g *Graph) SetStealPolicy(p exec.StealPolicy) {
	// Deterministic steal seed: runs are reproducible for a given graph
	// shape, and CnC determinism holds under any victim order anyway.
	g.lanes = exec.NewLanes(g.workers, exec.OwnerFIFO, p, 1)
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
// concurrently with a run — every counter is read atomically and the
// memory figures come from the accountant's locked snapshot — which is how
// the dpserve /metrics endpoint scrapes live jobs.
func (g *Graph) Stats() Stats {
	mem := g.acct.snapshot()
	steals, failedProbes, wakeups := g.lanes.Counters()
	return Stats{
		LiveItems:          mem.liveItems,
		PeakLiveItems:      mem.peakItems,
		ItemsFreed:         mem.freed,
		LiveBytes:          mem.liveBytes,
		PeakLiveBytes:      mem.peakBytes,
		BackpressureWaits:  mem.waits,
		BackpressureStalls: mem.stalls,

		TagsPut:       g.stats.tagsPut.Load(),
		ItemsPut:      g.stats.itemsPut.Load(),
		StepsStarted:  g.stats.started.Load(),
		StepsDone:     g.stats.done.Load(),
		Aborts:        g.stats.aborts.Load(),
		Requeues:      g.stats.requeues.Load(),
		InlineRuns:    g.stats.inline.Load(),
		TriggeredRuns: g.stats.triggered.Load(),
		Retries:       g.stats.retries.Load(),

		Steals:       steals,
		FailedProbes: failedProbes,
		Wakeups:      wakeups,

		BackendPuts: g.stats.backendPuts.Load(),
	}
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
	// deterministically: the monitor goroutine races the executor draining
	// the graph (unlike the old dedicated workers, the shared pool is
	// already awake), so check synchronously before the first put.
	if err := ctx.Err(); err != nil {
		g.fail(err)
		g.cancelled.Store(true)
	}

	stopMonitor := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				// Record the cancellation as the run's error (first error
				// wins) and switch the workers to drain mode.
				g.fail(ctx.Err())
				g.cancelled.Store(true)
				// Flush deferred throttled instances so drain mode can
				// retire them; otherwise their pending holds would keep
				// the graph from quiescing.
				g.acct.pump()
			case <-stopMonitor:
			}
		}()
	}

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
	close(stopMonitor)

	// End-of-run backend barrier: a batching backend (internal/dist) may
	// still hold mirrored puts, or checks of them, in its buffers; surface
	// any such error as the run's error.
	g.flushBackend()

	if g.parked.Load() > 0 {
		g.fail(&DeadlockError{Blocked: g.collectBlocked()})
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

// Burst accumulates tag puts so their dispatches hit the queue — and wake
// parked workers — once per burst instead of once per tag. Obtain one with
// NewBurst, put through TagCollection.PutInto / PutThrottledInto, and call
// Flush when the burst is complete. A Burst is single-use and not safe for
// concurrent use: Flush hands it back to an internal pool, so it must not
// be touched afterwards. The runtime itself bursts the waiter wakeups of
// every item put and the child-tag fan-out of the recursive DAG builders.
//
// Outstanding-work accounting happens at append time (each PutInto holds
// the graph open exactly like a plain Put), so a burst in flight can never
// let the graph quiesce early; dropping a burst without Flush leaks those
// holds and hangs the run — always Flush.
type Burst struct {
	g  *Graph
	rs []exec.Unit
}

// NewBurst returns an empty burst bound to the graph. Bursts are pooled:
// the steady state of a run allocates none.
func (g *Graph) NewBurst() *Burst {
	bu, _ := g.burstPool.Get().(*Burst)
	if bu == nil {
		bu = &Burst{}
	}
	bu.g = g
	return bu
}

// Flush pushes every accumulated dispatch in one batch, waking parked
// workers once for the whole burst, and recycles the Burst. Flushing an
// empty burst is a cheap no-op; using the Burst after Flush is a bug.
func (bu *Burst) Flush() {
	g := bu.g
	if g == nil {
		return // already flushed
	}
	if len(bu.rs) > 0 {
		g.lanes.PushBatch(bu.rs)
	}
	clear(bu.rs)
	bu.rs = bu.rs[:0]
	bu.g = nil
	g.burstPool.Put(bu)
}

// add appends one dispatch to the burst, taking the outstanding-work hold
// immediately.
func (bu *Burst) add(g *Graph, run exec.Unit) {
	g.outstanding.Add(1)
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
	// With deferred throttled instances pending, a retirement is an admission
	// opportunity when one of them is runnable (the step's releases may have
	// turned it from growing to freeing) — and the retirement that leaves
	// only pending holds outstanding is what triggers the idle-graph
	// liveness check. pump tells the two from the common no-op.
	if g.acct.pendingN.Load() > 0 {
		g.acct.pump()
	}
}

func (g *Graph) checkRunning() {
	if !g.running.Load() {
		panic(ErrNotRunning)
	}
}

// blockedReporter is implemented by item collections to enumerate parked
// instances for deadlock reports.
type blockedReporter interface {
	blockedInstances() []string
}

func (g *Graph) registerReporter(r blockedReporter) {
	g.structMu.Lock()
	g.reporters = append(g.reporters, r)
	g.structMu.Unlock()
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
// the wait state of a stalled run.
func (g *Graph) Blocked() []string { return g.collectBlocked() }

func (g *Graph) collectBlocked() []string {
	g.structMu.Lock()
	rs := g.reporters
	g.structMu.Unlock()
	var out []string
	for _, r := range rs {
		out = append(out, r.blockedInstances()...)
	}
	sort.Strings(out)
	return out
}

// Package forkjoin implements the fork-join execution model the paper's
// OpenMP benchmarks use: per-worker task deques with work stealing, plus
// task groups whose Wait method is the analogue of "#pragma omp taskwait"
// (and of cilk_sync). A Pool's workers are logical: the deques are the
// shared scheduling core's lanes (exec.Lanes) and execution is leased from
// the process-wide shared executor, so any number of pools — and any mix of
// pools and CnC graphs — multiplex onto GOMAXPROCS physical workers without
// oversubscription.
//
// The structural property under study — joins acting as barriers over all
// spawned children and thereby introducing artificial dependencies — is
// inherent to the Spawn/Wait API: Wait returns only after every task spawned
// on the group has finished, even when a continuation depends on just one of
// them.
//
// The pool's scheduling policy is the classic child-stealing design, the
// one discipline of exec.Lanes: a worker spawns tasks on its own lane
// (exec.Lanes.PushTo) and takes the newest back (preserving
// locality), while thieves take the oldest and typically largest
// sub-computations. A worker blocked in Wait
// helps by taking from the same core — its own lane, then steals — so
// waiting never idles a worker that could make progress. What this package
// adds on top is the task envelope: groups, cancellation, panic capture and
// race-detection bookkeeping.
//
// Because physical workers are shared, tasks must not block the worker
// waiting on other tasks except through Wait (which helps): a sibling
// barrier inside two tasks can deadlock when one physical worker runs both
// back to back — the same discipline TBB and Java's ForkJoinPool impose.
// Kernels that merely compute (every DP benchmark here) are unaffected.
package forkjoin

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dpflow/internal/determinacy"
	"dpflow/internal/exec"
)

// Task is a unit of work. The Ctx identifies the worker executing the task
// and must be used for any nested Spawn or Wait.
type Task func(*Ctx)

// ChildPanicError is the panic payload Ctx.Wait re-panics with when a child
// task panicked. Value preserves the child's original panic value, so typed
// payloads — error sentinels, structured diagnostics — survive the group
// boundary instead of being flattened to a string.
type ChildPanicError struct{ Value any }

func (e *ChildPanicError) Error() string {
	return fmt.Sprintf("forkjoin: child task panicked: %v", e.Value)
}

// Unwrap exposes the child's panic value when it was an error, so
// errors.Is and errors.As see through the group boundary.
func (e *ChildPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// runState is shared by every task of one Run/RunContext invocation: the
// pool it runs on (frames and contexts reach the pool through it, which
// keeps both a word smaller) and its cancellation flag. Cancellation is
// cooperative: queued tasks of a cancelled run are skipped (their group
// bookkeeping still retires), and Wait unwinds the task tree with a
// runCancelled panic that RunContext recovers at the root.
type runState struct {
	p         *Pool
	cancelled atomic.Bool
}

// runCancelled is the internal panic payload that unwinds a cancelled run.
// It is deliberately not recorded as a child panic: every stack level
// re-raises its own from Wait, and RunContext translates it to ctx.Err().
type runCancelled struct{}

// ErrConcurrentRun is returned (RunContext) or panicked (Run) when a run is
// started while another run of the same Pool is still in flight. Pools are
// one-run-at-a-time objects: the deques, steal RNGs and race detector are
// all scoped to a single computation. Server clients that want N concurrent
// jobs build N pools — they all lease from the same shared executor, so
// extra pools cost lanes, not goroutines.
var ErrConcurrentRun = errors.New("forkjoin: concurrent Run on the same Pool")

// Config controls pool construction.
type Config struct {
	// Workers is the number of logical workers (deques) the pool leases
	// from the shared executor; 0 means GOMAXPROCS. This caps the pool's
	// concurrency — physical worker goroutines belong to the executor.
	Workers int
	// Seed seeds the per-worker steal RNGs so runs are reproducible.
	Seed int64
	// Executor is the shared pool to lease from; nil means exec.Default().
	Executor *exec.Executor
}

// Stats is a snapshot of pool activity counters.
type Stats struct {
	Spawned      uint64 // tasks pushed via Spawn or Run
	Executed     uint64 // tasks completed
	Steals       uint64 // successful steals
	FailedProbes uint64 // victim probes that found an empty deque
	Yields       uint64 // scheduler yields while out of work
}

// Pool is a fork-join task pool: per-logical-worker lanes leasing
// execution from a shared exec.Executor. Create one with NewPool and
// release it with Close. A Pool may execute any number of Run calls
// sequentially; concurrent Run calls on the same Pool fail loudly with
// ErrConcurrentRun (build one Pool per concurrent job — they multiplex on
// the executor anyway).
type Pool struct {
	workers int
	lanes   *exec.Lanes
	race    *determinacy.Detector

	lease   *exec.Lease
	done    atomic.Bool // Close called: leased slots are gone
	running atomic.Bool // a Run/RunContext is in flight

	// framePool recycles spawn frames and ctxPool the task contexts, so a
	// steady-state run (spawn → steal → execute → retire) allocates
	// nothing beyond deque growth. Frames migrate between workers when
	// stolen, so both pools are pool-wide rather than per-worker.
	framePool sync.Pool
	ctxPool   sync.Pool

	spawned  atomic.Uint64
	executed atomic.Uint64
	yields   atomic.Uint64
}

// frame is one pooled spawned task, the exec.Unit the lanes carry: the body
// (either a Task closure or the allocation-free SpawnCall triple), the
// group it joins, and the run and race-detection state it inherits. Frames
// live from Spawn to Run and are recycled before the body runs.
type frame struct {
	f    Task
	call func(*Ctx, any, [4]int)
	recv any
	args [4]int

	g   *Group
	rs  *runState
	fr  *determinacy.Frame
	seq uint64
}

func (p *Pool) newFrame() *frame {
	fr, _ := p.framePool.Get().(*frame)
	if fr == nil {
		fr = &frame{}
	}
	return fr
}

// Ctx is the execution context of a task: the worker it runs on and the
// run it belongs to. A Ctx is only valid inside the task invocation that
// received it.
type Ctx struct {
	slot int
	rs   *runState
	fr   *determinacy.Frame
}

// WorkerID returns the index of the worker executing the current task, in
// [0, Workers).
func (c *Ctx) WorkerID() int { return c.slot }

// Pool returns the pool the current task runs on.
func (c *Ctx) Pool() *Pool { return c.rs.p }

// Race returns the current task's race-detection frame, or nil when the
// pool runs without detection. Drivers declare their base-case cell
// accesses through it:
//
//	if f := c.Race(); f != nil { f.Write(cell); f.Read(dep) }
func (c *Ctx) Race() *determinacy.Frame { return c.fr }

// NewPool creates a pool and leases its logical workers from the shared
// executor (cfg.Executor, or exec.Default()). The pool owns no goroutines.
func NewPool(cfg Config) *Pool {
	n := cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: n, lanes: exec.NewLanes(n, cfg.Seed)}
	ex := cfg.Executor
	if ex == nil {
		ex = exec.Default()
	}
	p.lease = p.lanes.Lease(ex, "forkjoin")
	return p
}

// Workers returns the pool's logical worker count (its concurrency cap and
// lane fan-out), not a goroutine count — physical workers belong to the
// shared executor.
func (p *Pool) Workers() int { return p.workers }

// WithRaceDetection enables DePa-style determinacy-race detection: every
// Spawn and Wait maintains fork/join timestamps, and tasks may declare
// shadow-cell accesses through Ctx.Race. Set it before Run; the detector's
// shadow state is reset at each run's root, so a pool may run repeatedly,
// but concurrent runs must not share a detector. Off (nil) the only cost
// is a nil check per spawn and wait.
func (p *Pool) WithRaceDetection(d *determinacy.Detector) *Pool {
	p.race = d
	return p
}

// RaceDetector returns the detector installed by WithRaceDetection, or nil.
func (p *Pool) RaceDetector() *determinacy.Detector { return p.race }

// Stats returns a snapshot of the pool's activity counters. It is safe to
// call concurrently with a run — every counter is atomic — which is how
// the dpserve /metrics endpoint scrapes live jobs.
func (p *Pool) Stats() Stats {
	steals, failedProbes, _ := p.lanes.Counters()
	return Stats{
		Spawned:      p.spawned.Load(),
		Executed:     p.executed.Load(),
		Steals:       steals,
		FailedProbes: failedProbes,
		Yields:       p.yields.Load(),
	}
}

// Close releases the pool's executor lease, waiting for in-flight slot
// claims to drain. Tasks still queued are abandoned; callers should Close
// only after their Run calls have returned.
func (p *Pool) Close() {
	p.done.Store(true)
	p.lease.Close()
}

// Run injects f as a root task and blocks until f — including every task it
// transitively spawns and waits for — has returned. It panics with the
// task's panic value if the computation panicked (a *ChildPanicError when
// the panic came from a spawned child, whose Value field holds the
// original payload), and with ErrConcurrentRun if another run of this Pool
// is still in flight.
func (p *Pool) Run(f Task) {
	// context.Background is never cancelled, so a non-nil error can only be
	// the concurrent-run guard; panics propagate unchanged.
	if err := p.RunContext(context.Background(), f); err != nil {
		panic(err)
	}
}

// RunContext is Run with cooperative cancellation. Cancellation is observed
// between task dispatches — queued children of a cancelled run are drained
// as no-ops and every Wait unwinds promptly — so a cancelled run stops
// scheduling work, retires its bookkeeping cleanly and returns ctx.Err()
// without leaking goroutines. A task already executing when the
// cancellation fires runs to completion: tasks are never interrupted
// mid-kernel. On success RunContext returns nil; if the computation
// panicked it re-panics exactly like Run.
func (p *Pool) RunContext(ctx context.Context, f Task) error {
	if p.done.Load() {
		panic("forkjoin: Run on closed pool")
	}
	if !p.running.CompareAndSwap(false, true) {
		return ErrConcurrentRun
	}
	defer p.running.Store(false)
	rs := &runState{p: p}
	// Observe a pre-cancelled context synchronously: the cancellation
	// callback races the shared executor running the root otherwise.
	if ctx.Err() != nil {
		rs.cancelled.Store(true)
	}
	stopCancel := context.AfterFunc(ctx, func() { rs.cancelled.Store(true) })
	var rootFr *determinacy.Frame
	if p.race != nil {
		rootFr = p.race.Root()
	}
	done := make(chan any, 1)
	root := func(c *Ctx) {
		defer func() {
			r := recover()
			p.executed.Add(1) // before the run is seen to be over, like every task
			done <- r
		}()
		if rs.cancelled.Load() {
			panic(runCancelled{})
		}
		f(c)
	}
	p.spawned.Add(1)
	fr := p.newFrame()
	fr.f = root
	fr.rs = rs
	fr.fr = rootFr
	p.lanes.PushTo(0, fr)
	r := <-done
	stopCancel()
	if _, unwound := r.(runCancelled); unwound || rs.cancelled.Load() {
		// Either the tree unwound through a Wait, or the root finished after
		// children were already being skipped; both mean the computation is
		// incomplete and the run's result must not be trusted.
		return ctx.Err()
	}
	if r != nil {
		panic(r)
	}
	return nil
}

// Group tracks a set of spawned tasks for a taskwait-style join. The zero
// value is ready to use. Groups may be reused after Wait returns.
type Group struct {
	pending atomic.Int64
	seq     atomic.Uint64
	panicMu sync.Mutex
	panics  []childPanic

	// Race-detection bookkeeping: the frames of children spawned on this
	// group since the last Wait, joined (ordered before the waiter's next
	// strand segment) when Wait completes. Touched only under detection.
	detMu   sync.Mutex
	detKids []*determinacy.Frame
}

// childPanic records one child's panic together with its spawn sequence
// number, so Wait can report deterministically regardless of which child
// reached its recover first.
type childPanic struct {
	seq uint64
	val any
}

// Spawn pushes f onto the current worker's lane as a child task of g.
// It is the analogue of "#pragma omp task". The Task closure is the only
// allocation on this path (the spawn frame itself is pooled); spawn sites
// hot enough to care use SpawnCall instead.
func (c *Ctx) Spawn(g *Group, f Task) {
	fr := c.rs.p.newFrame()
	fr.f = f
	c.spawn(g, fr)
}

// SpawnCall is the allocation-free form of Spawn: instead of a closure, the
// child is a package-level function invoked as call(ctx, recv, args). recv
// is typically a pointer to the long-lived state the child works on (a
// driver struct, a matrix) — pointer-shaped values convert to any without
// allocating — and args carries up to four integers of task coordinates
// (tile indices, extents). With both the frame and the Ctx pooled, a
// SpawnCall spawn-execute cycle performs zero heap allocations in steady
// state.
func (c *Ctx) SpawnCall(g *Group, call func(*Ctx, any, [4]int), recv any, args [4]int) {
	fr := c.rs.p.newFrame()
	fr.call = call
	fr.recv = recv
	fr.args = args
	c.spawn(g, fr)
}

// spawn fills in the inherited state of fr and pushes it.
func (c *Ctx) spawn(g *Group, fr *frame) {
	fr.seq = g.seq.Add(1)
	g.pending.Add(1)
	fr.g = g
	fr.rs = c.rs
	if c.fr != nil {
		childFr := c.fr.Fork()
		g.detMu.Lock()
		g.detKids = append(g.detKids, childFr)
		g.detMu.Unlock()
		fr.fr = childFr
	}
	p := c.rs.p
	p.spawned.Add(1)
	// The spawning worker's own slot is busy (we are inside its claim), but
	// the push's dirty hint lets a parked physical worker claim a free
	// sibling slot and steal the child.
	p.lanes.PushTo(c.slot, fr)
}

// Wait blocks until every task spawned on g has completed — the analogue of
// "#pragma omp taskwait". While waiting, the current worker executes pending
// tasks (its own first, then stolen ones), so Wait never wastes the worker.
// If any child panicked, Wait re-panics with a *ChildPanicError carrying
// the panic value of the first panicking child in spawn order.
func (c *Ctx) Wait(g *Group) {
	p, slot := c.rs.p, c.slot
	for g.pending.Load() > 0 {
		if c.rs.cancelled.Load() {
			panic(runCancelled{})
		}
		if u := p.lanes.Take(slot); u != nil {
			u.Run(slot)
			continue
		}
		p.yields.Add(1)
		runtime.Gosched()
	}
	if c.rs.cancelled.Load() {
		panic(runCancelled{})
	}
	if c.fr != nil {
		g.detMu.Lock()
		kids := g.detKids
		g.detKids = nil
		g.detMu.Unlock()
		c.fr.Join(kids)
	}
	g.panicMu.Lock()
	defer g.panicMu.Unlock()
	if len(g.panics) > 0 {
		// Deterministic report: the first panic by spawn order, however the
		// children interleaved. All panicking children have recorded their
		// value by the time pending reaches zero, so the choice cannot race.
		first := g.panics[0]
		for _, p := range g.panics[1:] {
			if p.seq < first.seq {
				first = p
			}
		}
		g.panics = nil
		if cpe, ok := first.val.(*ChildPanicError); ok {
			panic(cpe) // nested Wait already wrapped it: keep the innermost value
		}
		panic(&ChildPanicError{Value: first.val})
	}
}

// Run executes the frame on the logical worker that took it.
func (fr *frame) Run(slot int) { fr.rs.p.runFrame(slot, fr) }

// runFrame copies the frame's state out, recycles the frame, and runs the
// body with a pooled Ctx. The group bookkeeping (panic capture, pending
// retirement) that Spawn used to wrap in a per-spawn closure lives here
// instead, so the only per-task heap traffic left is whatever the body's
// own closure captured — and none at all through SpawnCall.
func (p *Pool) runFrame(slot int, fr *frame) {
	f, call, recv, args := fr.f, fr.call, fr.recv, fr.args
	g, rs, childFr, seq := fr.g, fr.rs, fr.fr, fr.seq
	*fr = frame{}
	p.framePool.Put(fr)

	c, _ := p.ctxPool.Get().(*Ctx)
	if c == nil {
		c = &Ctx{}
	}
	c.slot, c.rs, c.fr = slot, rs, childFr
	defer func() {
		c.rs, c.fr = nil, nil
		p.ctxPool.Put(c)
		if g == nil {
			// Root task: its own wrapper recovers, counts and reports, and
			// there is no group to retire.
			return
		}
		if r := recover(); r != nil {
			if _, unwound := r.(runCancelled); !unwound {
				g.panicMu.Lock()
				g.panics = append(g.panics, childPanic{seq: seq, val: r})
				g.panicMu.Unlock()
			}
		}
		// Counted before the group is retired: once a Wait has seen the task
		// complete, Stats includes it.
		p.executed.Add(1)
		g.pending.Add(-1)
	}()
	if g != nil && rs.cancelled.Load() {
		return // cancelled run: drain without executing
	}
	if call != nil {
		call(c, recv, args)
		return
	}
	f(c)
}

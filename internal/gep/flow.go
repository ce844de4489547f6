package gep

import (
	"context"
	"errors"
	"sync"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
)

// Flow is a recurrence as every interpreter reads it: its schedule walk and
// its dependency relation as values, plus the kernel and the collection
// names. T is the tag type — a call of the walk — and K the item key — a
// base task. GE/FW, Smith-Waterman, Cholesky and the parenthesis problem
// each build one, and three methods interpret it: Serial, the reference;
// ForkJoin, the paper's Listing 3; Run, the one CnC program of Listings 4–5
// in all four variants. So each execution model is written once, and
// internal/dag builds its task graphs from the same walks and relations.
type Flow[T, K comparable] struct {
	// Colls names the step, tag and item collection of each kind of call.
	Colls [][3]string
	// Coll returns the index into Colls of the call whose block coordinates
	// are k; nil when there is one kind.
	Coll func(k K) int
	// Task returns a call's block coordinates, and whether the call is a
	// base task — the coordinates are then its item key.
	Task func(t T) (k K, base bool)
	// Walk visits the sub-calls of t in schedule order; last marks the end
	// of a stage. With flat set it skips the recursion and visits the base
	// tasks under t directly (the walk split tiles ways).
	Walk func(t T, flat bool, visit func(sub T, last bool))
	// Preds and Succs are the dependency relation on base tasks; they stop
	// when f returns false and report whether f accepted every task.
	Preds, Succs func(k K, f func(K) bool) bool
	// Kernel runs base task k. Under race-checked fork-join fr is the
	// task's detection frame and the kernel declares on it the tile it
	// writes and the tiles it reads; only the kernel knows those (FW's
	// write-after-read predecessors order a tile they are never read by).
	// Elsewhere fr is nil.
	Kernel func(k K, fr *determinacy.Frame) error
	// Root is the call that is the whole problem. Flat marks a walk with
	// no recursive level: no tag ever stands for a call with sub-calls, so
	// every interpreter starts from Root's flat walk.
	Root T
	Flat bool
	// TileBytes is the memory one base task's output stands for.
	TileBytes int
}

// visitor adapts the walk's and the relation's callback forms to what an
// interpreter asks for — a stage collected for spawning, sub-calls put into
// a burst, dependencies appended to the runtime's buffer, a count — without
// a closure per call: its callbacks close over the visitor itself and are
// built once. Visitors are pooled per instantiation and outlive a run, so
// nothing is allocated per call, per spawn or per dependency.
type visitor[T, K comparable] struct {
	pool *sync.Pool
	f    *Flow[T, K]
	// Serial and fork-join: the context the stage is spawned on (nil:
	// serial, which runs each sub-call as the walk visits it), the stage,
	// and the group its taskwait joins.
	c     *forkjoin.Ctx
	stage []T
	g     forkjoin.Group
	// CnC: the program, the burst a recursive step's sub-calls go into, the
	// runtime's dependency buffer, a count.
	d  *flowGraph[T, K]
	bu *cnc.Burst
	ds []cnc.Dep
	n  int

	add, expand func(T, bool)
	dep, count  func(K) bool
}

// visitorPools holds one *sync.Pool of visitors per instantiation, keyed by
// the typed nil *visitor[T, K].
var visitorPools sync.Map

func visitorPool[T, K comparable]() *sync.Pool {
	key := any((*visitor[T, K])(nil))
	if p, ok := visitorPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p := &sync.Pool{}
	p.New = func() any {
		v := &visitor[T, K]{pool: p}
		v.add = func(sub T, last bool) {
			if v.c == nil { // serial: no stage to collect
				v.f.call(p, nil, sub, false)
				return
			}
			v.stage = append(v.stage, sub)
			if last {
				v.runStage()
			}
		}
		v.expand = func(sub T, _ bool) { v.d.put(sub, v.bu) }
		v.dep = func(k K) bool { v.ds = append(v.ds, v.d.out[v.d.coll(k)].Key(k)); return true }
		v.count = func(K) bool { v.n++; return true }
		return v
	}
	actual, _ := visitorPools.LoadOrStore(key, p)
	return actual.(*sync.Pool)
}

func (v *visitor[T, K]) release() {
	v.f, v.c, v.d = nil, nil, nil
	v.pool.Put(v)
}

// Serial runs the walk's stages in order on the calling goroutine — the
// reference every other interpreter is checked against. A kernel error
// stops the walk and is returned.
func (f *Flow[T, K]) Serial() (err error) {
	defer recoverKernelError(&err)
	f.call(visitorPool[T, K](), nil, f.Root, f.Flat)
	return nil
}

// ForkJoin runs the walk on the pool, the paper's Listing 3: the calls of a
// stage are spawned tasks joined by a taskwait before the next stage starts.
// That join is the artificial dependency — D(X00) of GE's second round
// truly depends only on D(X00) of the first, yet it waits for all four
// quadrants. A stage of one call runs on the caller. A kernel error stops
// the walk and is returned; a cancelled ctx unwinds it at the next spawn or
// taskwait and returns ctx.Err() (see forkjoin.Pool.RunContext).
func (f *Flow[T, K]) ForkJoin(ctx context.Context, p *forkjoin.Pool) (err error) {
	defer recoverKernelError(&err)
	pool := visitorPool[T, K]()
	return p.RunContext(ctx, func(c *forkjoin.Ctx) { f.call(pool, c, f.Root, f.Flat) })
}

// call interprets call t — on c, or serially when c is nil. A base task
// runs its kernel; any other call (and, with flat set, the root of a Flat
// walk) runs the stages of its walk in order.
func (f *Flow[T, K]) call(pool *sync.Pool, c *forkjoin.Ctx, t T, flat bool) {
	if k, base := f.Task(t); base && !flat {
		var fr *determinacy.Frame
		if c != nil {
			fr = c.Race()
		}
		if err := f.Kernel(k, fr); err != nil {
			panic(kernelError{err})
		}
		return
	}
	v := pool.Get().(*visitor[T, K])
	v.f, v.c = f, c
	f.Walk(t, flat, v.add)
	v.release()
}

// runStage runs the fork-join stage collected so far: a stage of one call
// on the caller, any other spawned and joined.
func (v *visitor[T, K]) runStage() {
	if len(v.stage) == 1 {
		v.f.call(v.pool, v.c, v.stage[0], false)
	} else {
		for i := range v.stage {
			v.c.SpawnCall(&v.g, spawnCall, v, [4]int{i})
		}
		v.c.Wait(&v.g)
	}
	v.stage = v.stage[:0]
}

// stager is what spawnCall sees of a visitor.
type stager interface{ callAt(c *forkjoin.Ctx, i int) }

func (v *visitor[T, K]) callAt(c *forkjoin.Ctx, i int) { v.f.call(v.pool, c, v.stage[i], false) }

// spawnCall is the spawn trampoline: a package-level function, so a spawn
// allocates no closure (see forkjoin.Ctx.SpawnCall). Its receiver is the
// visitor holding the stage and its one argument the call's index in it.
func spawnCall(c *forkjoin.Ctx, recv any, a [4]int) { recv.(stager).callAt(c, a[0]) }

// kernelError carries a kernel's error up the walk as a panic — the one way
// out of a spawned task, which the pool hands to the joining Wait — and
// Serial and ForkJoin return it as their error.
type kernelError struct{ err error }

func (e kernelError) Error() string { return e.err.Error() }

func recoverKernelError(err *error) {
	r := recover()
	if r == nil {
		return
	}
	var ke kernelError
	if e, ok := r.(error); ok && errors.As(e, &ke) {
		*err = ke.err
		return
	}
	panic(r)
}

// flowGraph is one built CnC program of a Flow.
type flowGraph[T, K comparable] struct {
	*Flow[T, K]
	g     *cnc.Graph
	steps []*cnc.StepCollection[T]
	tags  []*cnc.TagCollection[T]
	out   []*cnc.ItemCollection[K, bool]
	// poll tests one predecessor in the non-blocking variant; the others
	// declare them as the read set, which the runtime reads itself.
	poll func(K) bool
	pool *sync.Pool
}

func (d *flowGraph[T, K]) coll(k K) int {
	if d.Coll == nil {
		return 0
	}
	return d.Coll(k)
}

// borrow takes a visitor for the program.
func (d *flowGraph[T, K]) borrow() *visitor[T, K] {
	v := d.pool.Get().(*visitor[T, K])
	v.d = d
	return v
}

// build declares the collections and wires the variant: how a base step
// waits for its predecessors, and the memory contract.
func (f *Flow[T, K]) build(name string, workers int, variant core.Variant) *flowGraph[T, K] {
	g := cnc.NewGraph(name, workers)
	d := &flowGraph[T, K]{Flow: f, g: g, pool: visitorPool[T, K]()}
	for _, names := range f.Colls {
		d.out = append(d.out, cnc.NewItemCollection[K, bool](g, names[2]))
		d.tags = append(d.tags, cnc.NewTagCollection[T](g, names[1], false))
		d.steps = append(d.steps, cnc.NewStepCollection(g, names[0], d.step))
	}
	if variant == core.NonBlockingCnC {
		d.poll = func(k K) bool { _, ok := d.out[d.coll(k)].TryGet(k); return ok }
	}
	for c, step := range d.steps {
		step.Produces(d.out[c])
		// The predecessors are the read set: the runtime reads them before a
		// base step runs — a missing one aborts it in Native, the tuned
		// variants wait for them at launch — and releases them when it
		// completes. Memory contract: an output item is read once by each
		// successor of its task, so its get-count is their number; it stands
		// for one tile, and each base tag admitted under a memory limit will
		// materialise exactly one. The non-blocking variant is excluded: its
		// poll-miss path retires a successful instance per re-put, which
		// would release the read set once per poll instead of once per tile.
		if variant != core.NonBlockingCnC {
			d.out[c].WithGetCount(d.getCount).WithSizeOf(func(K) int { return f.TileBytes })
			switch variant {
			case core.TunerCnC:
				step.WithTunedGetsAppend(cnc.TunedPrescheduled, d.deps)
			case core.ManualCnC:
				step.WithTunedGetsAppend(cnc.TunedTriggered, d.deps)
			default:
				step.WithGetsAppend(d.deps)
			}
			d.tags[c].WithTagBytes(func(t T) int {
				if _, base := f.Task(t); !base {
					return 0 // recursive tags expand control flow, no data
				}
				return f.TileBytes
			})
		}
		d.tags[c].Prescribe(step)
	}
	return d
}

// deps appends the predecessors of the base task t stands for to the
// runtime's buffer: the read set of every blocking variant, which the
// tuned ones also wait for at launch. Recursive calls read nothing.
func (d *flowGraph[T, K]) deps(t T, ds []cnc.Dep) []cnc.Dep {
	k, base := d.Task(t)
	if !base {
		return ds
	}
	v := d.borrow()
	v.ds = ds
	d.Preds(k, v.dep)
	ds, v.ds = v.ds, nil
	v.release()
	return ds
}

func (d *flowGraph[T, K]) getCount(k K) int {
	v := d.borrow()
	v.n = 0
	d.Succs(k, v.count)
	n := v.n
	v.release()
	return n
}

// put puts call t as a tag of its kind. Throttled: under a memory limit a
// base tag is deferred while its tile would overrun the budget.
func (d *flowGraph[T, K]) put(t T, bu *cnc.Burst) {
	k, _ := d.Task(t)
	d.tags[d.coll(k)].PutThrottledInto(t, bu)
}

// step is the one step body. A recursive call puts its sub-calls as tags —
// all stages at once: the items, not the walk, order a data-flow run. A
// base task, its predecessors present, runs the kernel and publishes its
// output (the paper's Listing 5).
func (d *flowGraph[T, K]) step(t T) error {
	k, base := d.Task(t)
	if !base {
		v := d.borrow()
		v.bu = d.g.NewBurst()
		d.Walk(t, false, v.expand)
		v.bu.Flush()
		v.bu = nil
		v.release()
		return nil
	}
	if d.poll != nil && !d.Preds(k, d.poll) {
		d.tags[d.coll(k)].Put(t) // a non-blocking poll missed: try again later
		return nil
	}
	if err := d.Kernel(k, nil); err != nil {
		return err
	}
	d.out[d.coll(k)].Put(k, true)
	return nil
}

// Run executes the CnC program: Native, Tuner and NonBlocking put the root
// tag and let the steps expand the recursion; Manual — and every variant of
// a Flat walk — instantiates every base task from the environment, one
// burst per stage, so all dependencies are declared before any update
// executes and the scheduler triggers tasks as items become available. A
// cancelled ctx drains the graph and returns ctx.Err() (see
// cnc.Graph.RunContext). tune, when non-nil, is called with the built graph
// before the run starts — the hook the chaos harness uses to install
// fault-injection hooks and retry budgets, and the memory report its limit.
func (f *Flow[T, K]) Run(ctx context.Context, name string, workers int, variant core.Variant, tune func(*cnc.Graph)) (CnCStats, error) {
	d := f.build(name, workers, variant)
	if tune != nil {
		tune(d.g)
	}
	err := d.g.RunContext(ctx, func() {
		if variant != core.ManualCnC && !f.Flat {
			d.put(f.Root, nil)
			return
		}
		bu := d.g.NewBurst()
		f.Walk(f.Root, true, func(sub T, last bool) {
			d.put(sub, bu)
			if last {
				bu.Flush()
				bu = d.g.NewBurst()
			}
		})
		bu.Flush()
	})
	stats := CnCStats{Stats: d.g.Stats()}
	for _, ic := range d.out {
		// Puts, not Len: get-count GC frees receipts as their last reader
		// finishes, so the live count no longer equals the task census.
		stats.BaseTasks += int(ic.Puts())
	}
	return stats, err
}

// Spec builds the program's static structure — collections and
// prescribe/produce/consume edges, the paper's Listing 4 — without running
// it, for description and visualisation (dpbench -exp spec). The consume
// edges are read off the relation over the flow's own task space, so build
// it for a problem of a few tiles.
func (f *Flow[T, K]) Spec(name string, variant core.Variant) *cnc.Graph {
	d := f.build(name, 1, variant)
	seen := map[[2]int]bool{}
	f.Walk(f.Root, true, func(t T, _ bool) {
		k, _ := f.Task(t)
		f.Preds(k, func(p K) bool {
			if e := [2]int{d.coll(k), d.coll(p)}; !seen[e] {
				seen[e] = true
				d.steps[e[0]].Consumes(d.out[e[1]])
			}
			return true
		})
	})
	return d.g
}

package gep

import (
	"context"
	"sync"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
)

// Flow is a recurrence as the data-flow interpreter reads it: its schedule
// walk and its dependency relation as values, plus the kernel and the
// collection names. T is the tag type — a call of the walk — and K the item
// key — a base task. GE/FW, Smith-Waterman, Cholesky and the parenthesis
// problem each build one; Run is the one CnC program they all execute, so
// the variants' synchronisation styles and the memory contract are written
// once.
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
	// Kernel runs base task k.
	Kernel func(k K) error
	// Root is the call that is the whole problem. Flat marks a walk with
	// no recursive level: no tag ever stands for a call with sub-calls, so
	// the environment expands Root itself under every variant.
	Root T
	Flat bool
	// TileBytes is the memory one base task's output stands for.
	TileBytes int
}

// flowGraph is one built CnC program of a Flow.
type flowGraph[T, K comparable] struct {
	*Flow[T, K]
	g     *cnc.Graph
	steps []*cnc.StepCollection[T]
	tags  []*cnc.TagCollection[T]
	out   []*cnc.ItemCollection[K, bool]
	// get enforces one dependency in the variant's style.
	get      func(K) bool
	visitors sync.Pool
}

// visitor adapts the walk's and the relation's visitor forms to what the
// runtime asks for — sub-calls put into a burst, dependencies appended to
// its pooled buffer, a count — without a closure per call: expand, dep and
// count close over the visitor itself and are built once.
type visitor[T, K comparable] struct {
	bu         *cnc.Burst
	ds         []cnc.Dep
	n          int
	expand     func(T, bool)
	dep, count func(K) bool
}

func (d *flowGraph[T, K]) coll(k K) int {
	if d.Coll == nil {
		return 0
	}
	return d.Coll(k)
}

// build declares the collections and wires the variant: how a base step
// waits for its predecessors, and the memory contract.
func (f *Flow[T, K]) build(name string, workers int, variant core.Variant) *flowGraph[T, K] {
	g := cnc.NewGraph(name, workers)
	d := &flowGraph[T, K]{Flow: f, g: g}
	for _, names := range f.Colls {
		d.out = append(d.out, cnc.NewItemCollection[K, bool](g, names[2]))
		d.tags = append(d.tags, cnc.NewTagCollection[T](g, names[1], false))
		d.steps = append(d.steps, cnc.NewStepCollection(g, names[0], d.step))
	}
	d.visitors.New = func() any {
		v := &visitor[T, K]{}
		v.expand = func(sub T, _ bool) { d.put(sub, v.bu) }
		v.dep = func(k K) bool { v.ds = append(v.ds, d.out[d.coll(k)].Key(k)); return true }
		v.count = func(K) bool { v.n++; return true }
		return v
	}
	if variant == core.NonBlockingCnC {
		d.get = func(k K) bool { _, ok := d.out[d.coll(k)].TryGet(k); return ok }
	} else {
		// A blocking get of a missing item aborts the step; the runtime
		// re-executes it when the item arrives. The tuned variants declare
		// the same predecessors up front, so their gets never miss.
		d.get = func(k K) bool { d.out[d.coll(k)].Get(k); return true }
	}
	for c, step := range d.steps {
		step.Produces(d.out[c])
		switch variant {
		case core.TunerCnC:
			step.WithDepsAppend(cnc.TunedPrescheduled, d.deps)
		case core.ManualCnC:
			step.WithDepsAppend(cnc.TunedTriggered, d.deps)
		}
		// Memory contract: an output item is read once by each successor of
		// its task, so its get-count is their number; it stands for one
		// tile, and each base tag admitted under a memory limit will
		// materialise exactly one. The predecessors double as the released
		// read set — they are exactly what the base step gets. The
		// non-blocking variant is excluded: its poll-miss path retires a
		// successful instance per re-put, which would release the read set
		// once per poll instead of once per tile.
		if variant != core.NonBlockingCnC {
			d.out[c].WithGetCount(d.getCount).WithSizeOf(func(K) int { return f.TileBytes })
			step.WithGetsAppend(d.deps)
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
// runtime's pooled buffer: the declared dependencies of the tuned variants
// and the released read set of all. Recursive calls read nothing.
func (d *flowGraph[T, K]) deps(t T, ds []cnc.Dep) []cnc.Dep {
	k, base := d.Task(t)
	if !base {
		return ds
	}
	v := d.visitors.Get().(*visitor[T, K])
	v.ds = ds
	d.Preds(k, v.dep)
	ds, v.ds = v.ds, nil
	d.visitors.Put(v)
	return ds
}

func (d *flowGraph[T, K]) getCount(k K) int {
	v := d.visitors.Get().(*visitor[T, K])
	v.n = 0
	d.Succs(k, v.count)
	n := v.n
	d.visitors.Put(v)
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
// base task waits for its predecessors, runs the kernel and publishes its
// output (the paper's Listing 5).
func (d *flowGraph[T, K]) step(t T) error {
	k, base := d.Task(t)
	if !base {
		v := d.visitors.Get().(*visitor[T, K])
		v.bu = d.g.NewBurst()
		d.Walk(t, false, v.expand)
		v.bu.Flush()
		v.bu = nil
		d.visitors.Put(v)
		return nil
	}
	if !d.Preds(k, d.get) {
		d.tags[d.coll(k)].Put(t) // a non-blocking poll missed: try again later
		return nil
	}
	if err := d.Kernel(k); err != nil {
		return err
	}
	d.out[d.coll(k)].Put(k, true)
	return nil
}

// Run executes the program: Native, Tuner and NonBlocking put the root tag
// and let the steps expand the recursion; Manual — and every variant of a
// Flat walk — instantiates every base task from the environment, one burst
// per stage, so all dependencies are declared before any update executes
// and the scheduler triggers tasks as items become available. A cancelled
// ctx drains the graph and returns ctx.Err() (see cnc.Graph.RunContext).
// tune, when non-nil, is called with the built graph before the run starts
// — the hook the chaos harness uses to install fault-injection hooks and
// retry budgets, and the memory report its limit.
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
// it, for description and visualisation (cmd/cncgraph). The consume edges
// are read off the relation over the flow's own task space, so build it for
// a problem of a few tiles.
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

package gep

import (
	"context"
	"fmt"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/matrix"
)

// Tag identifies a block instance of one of the recursive functions, as in
// the paper's Listing 4: CollectionT = <<I,J>,<K,b>>. I, J, K are block
// coordinates in units of S; the block covers rows [I*S, (I+1)*S), columns
// [J*S, (J+1)*S), elimination steps [K*S, (K+1)*S).
type Tag struct {
	I, J, K int
	S       int
}

// String renders a tag like the paper's <<I,J>,<K,b>> notation.
func (t Tag) String() string {
	return fmt.Sprintf("<<%d,%d>,<%d,%d>>", t.I, t.J, t.K, t.S)
}

// ItemKey identifies a completed base-case update: tile (I, J) finished its
// elimination step K, at base-tile granularity (the paper's
// <<I,J>,<K,b>> -> bool items with b fixed at the base size).
type ItemKey struct {
	I, J, K int
}

// Func identifies one of the four recursive functions.
type Func int

// The four functions of Figure 2.
const (
	FuncA Func = iota
	FuncB
	FuncC
	FuncD
)

// String returns the paper's function name.
func (f Func) String() string { return [...]string{"funcA", "funcB", "funcC", "funcD"}[f] }

// Classify returns which function owns the base task updating tile (i, j)
// at elimination step k: A on the diagonal, B in the pivot row, C in the
// pivot column, D elsewhere.
func Classify(i, j, k int) Func {
	switch {
	case i == k && j == k:
		return FuncA
	case i == k:
		return FuncB
	case j == k:
		return FuncC
	default:
		return FuncD
	}
}

// CnCStats couples the runtime counters with the task census of a CnC run.
type CnCStats struct {
	cnc.Stats
	BaseTasks int // base-case step instances (tile updates) executed
}

// RunCnC executes the data-flow R-DP program on x: four step collections
// (funcA..funcD), four tag collections prescribing them, and four item
// collections used purely for fine-grained synchronisation, as in Listings
// 4 and 5. The variant selects Native (speculative blocking gets), Tuner
// (pre-scheduling tuner), Manual (eager full expansion with pre-declared
// dependencies) or NonBlocking (poll and re-put own tag).
func (alg Algorithm) RunCnC(x *matrix.Dense, base, workers int, variant core.Variant) (CnCStats, error) {
	return alg.RunCnCContext(context.Background(), x, base, workers, variant, nil)
}

// RunCnCContext is RunCnC with cooperative cancellation: a cancelled ctx
// drains the graph and returns ctx.Err() (see cnc.Graph.RunContext). tune,
// when non-nil, is called with the built graph before the run starts — the
// hook the chaos harness uses to install fault-injection hooks and retry
// budgets without this package knowing about either.
func (alg Algorithm) RunCnCContext(ctx context.Context, x *matrix.Dense, base, workers int, variant core.Variant, tune func(*cnc.Graph)) (CnCStats, error) {
	if err := validate(x, base); err != nil {
		return CnCStats{}, err
	}
	n := x.Rows()
	bs := BaseSize(n, base)

	g := cnc.NewGraph("gep-"+variant.String(), workers)
	d := &dataflow{
		g:       g,
		x:       x,
		base:    base,
		bs:      bs,
		tiles:   n / bs,
		variant: variant,
		alg:     alg,
	}
	d.build()
	if tune != nil {
		tune(g)
	}

	err := g.RunContext(ctx, func() {
		if variant == core.ManualCnC {
			d.expandAll()
			return
		}
		d.tags[FuncA].PutThrottled(Tag{0, 0, 0, n})
	})
	stats := CnCStats{Stats: g.Stats()}
	for _, ic := range d.out {
		// Puts, not Len: get-count GC frees receipts as their last reader
		// finishes, so the live count no longer equals the task census.
		stats.BaseTasks += int(ic.Puts())
	}
	return stats, err
}

// NewCnCGraph builds the CnC program's static structure — the four step,
// tag and item collections and their prescribe/produce/consume
// relationships of Listing 4 — without running it, for description and
// visualisation (cmd/cncgraph).
func (alg Algorithm) NewCnCGraph(name string, variant core.Variant) *cnc.Graph {
	g := cnc.NewGraph(name, 1)
	d := &dataflow{g: g, variant: variant, alg: alg, base: 1, bs: 1, tiles: 1}
	d.build()
	return g
}

// dataflow holds the GEContext of Listing 4: the DP table, the problem
// parameters and the collections.
type dataflow struct {
	g       *cnc.Graph
	x       *matrix.Dense
	base    int
	bs      int // base tile side
	tiles   int // tiles per matrix side
	variant core.Variant
	alg     Algorithm

	tags [4]*cnc.TagCollection[Tag]
	out  [4]*cnc.ItemCollection[ItemKey, bool]
}

func (d *dataflow) build() {
	g := d.g
	var steps [4]*cnc.StepCollection[Tag]
	bodies := [4]cnc.StepFunc[Tag]{d.executeA, d.executeB, d.executeC, d.executeD}
	for f := FuncA; f <= FuncD; f++ {
		d.out[f] = cnc.NewItemCollection[ItemKey, bool](g, f.String()+"_outputs")
		d.tags[f] = cnc.NewTagCollection[Tag](g, f.String()+"_tags", false)
		steps[f] = cnc.NewStepCollection(g, f.String(), bodies[f])
	}

	// Declarative graph structure (Listing 4's produces/consumes).
	steps[FuncA].Produces(d.out[FuncA]).Consumes(d.out[FuncD])
	steps[FuncB].Produces(d.out[FuncB]).Consumes(d.out[FuncA]).Consumes(d.out[FuncD])
	steps[FuncC].Produces(d.out[FuncC]).Consumes(d.out[FuncA]).Consumes(d.out[FuncD])
	steps[FuncD].Produces(d.out[FuncD]).Consumes(d.out[FuncA]).
		Consumes(d.out[FuncB]).Consumes(d.out[FuncC]).Consumes(d.out[FuncD])

	// One dependency closure per function, shared by the tuned declaration
	// and the released read set below.
	var deps [4]func(Tag, []cnc.Dep) []cnc.Dep
	for f := FuncA; f <= FuncD; f++ {
		deps[f] = d.depsFor(f)
		switch d.variant {
		case core.TunerCnC:
			steps[f].WithDepsAppend(cnc.TunedPrescheduled, deps[f])
		case core.ManualCnC:
			steps[f].WithDepsAppend(cnc.TunedTriggered, deps[f])
		}
	}

	// Memory contract: every output item's consumer count is known in closed
	// form (getCounts), each item stands for one bs×bs tile of float64s, and
	// each base tag admitted under a memory limit will materialise exactly
	// one such tile. depsFor doubles as the released read set — it names
	// exactly what the base step's blocking gets (or declared deps) fetch.
	// The non-blocking variant is excluded: its poll-miss path retires a
	// successful instance per re-put, which would release the read set once
	// per poll instead of once per tile.
	if d.variant != core.NonBlockingCnC {
		tile := d.bs * d.bs * 8
		for f := FuncA; f <= FuncD; f++ {
			d.out[f].WithGetCount(d.getCounts(f)).WithSizeOf(func(ItemKey) int { return tile })
			steps[f].WithGetsAppend(deps[f])
			d.tags[f].WithTagBytes(func(t Tag) int {
				if t.S > d.base {
					return 0 // recursive tags expand control flow, no data
				}
				return tile
			})
		}
	}

	for f := FuncA; f <= FuncD; f++ {
		d.tags[f].Prescribe(steps[f])
	}
}

// getCounts returns the closed-form consumer count of one function's output
// items — how many base tasks read tile receipt (I,J,K) before it can be
// freed. Derived from depsFor over the full tag space (T = tiles per side):
//
// Triangular (GE — phase K touches only tiles with i,j ≥ K; pivot tiles are
// final after their own phase, so there are no anti-dependency readers):
//
//   - A(K,K,K): every other phase-K task reads it → (T−K)²−1
//   - B(K,J,K): column of D tasks D(i,J,K), i>K → T−K−1
//   - C(I,K,K): row of D tasks D(I,j,K), j>K → T−K−1
//   - D(I,J,K): only the same tile's next elimination step (I,J,K+1) → 1
//
// Cube (FW — every phase touches all T² tiles, and phase K+1 writers must
// additionally wait for phase-K readers of the tile they overwrite, the
// antiDeps WAR hazard; b = 1 while a next phase exists, else 0):
//
//   - A(K,K,K): T²−1 same-phase readers + the next writer of the tile → T²−1+b
//   - B(K,J,K): T−1 same-phase D readers + next writer + one anti-dep
//     reader (the phase-K+1 diagonal task scans all B receipts) → T−1+2b
//   - C(I,K,K): symmetric to B → T−1+2b
//   - D(I,J,K): next writer + the two anti-dep readers overwriting the old
//     pivot row and column → 3b
func (d *dataflow) getCounts(f Func) func(ItemKey) int {
	t := d.tiles
	if d.alg.Shape == Cube {
		return func(k ItemKey) int {
			b := 0
			if k.K+1 < t {
				b = 1
			}
			switch f {
			case FuncA:
				return t*t - 1 + b
			case FuncB, FuncC:
				return t - 1 + 2*b
			default:
				return 3 * b
			}
		}
	}
	return func(k ItemKey) int {
		r := t - k.K // tiles per side still active at phase K
		switch f {
		case FuncA:
			return r*r - 1
		case FuncB, FuncC:
			return r - 1
		default:
			return 1 // the consumer (I,J,K+1) always exists: I,J > K
		}
	}
}

// expandAll instantiates every base-case task directly — the paper's
// "manually pre-scheduled" program: all dependencies are declared before any
// update executes, so the scheduler triggers tasks as items become
// available. The cost is instantiating the whole task graph up front.
func (d *dataflow) expandAll() {
	t := d.tiles
	for k := 0; k < t; k++ {
		lo := 0
		if d.alg.Shape == Triangular {
			lo = k // tiles with i < k or j < k are no-ops under Σ_GE
		}
		// One burst per elimination phase: the k-th phase's t² tags reach
		// the queue in a single batched push and wakeup pass instead of t²
		// individual ones. Throttled: under a memory limit the environment's
		// sprint pauses whenever its admitted tiles would overrun the
		// budget, resuming as earlier phases retire (deferred tags bypass
		// the burst — their admission time is not under our control).
		bu := d.g.NewBurst()
		for i := lo; i < t; i++ {
			for j := lo; j < t; j++ {
				f := Classify(i, j, k)
				d.tags[f].PutThrottledInto(Tag{i, j, k, d.bs}, bu)
			}
		}
		bu.Flush()
	}
}

// depsFor returns the pre-declared dependency function of one step
// collection for the tuned variants. Recursive (non-base) tags have no
// dependencies; base tags declare exactly what their blocking Gets would
// fetch. It is the append form: the runtime hands in a pooled scratch
// buffer, so declaring an instance's dependencies allocates nothing.
func (d *dataflow) depsFor(f Func) func(Tag, []cnc.Dep) []cnc.Dep {
	return func(t Tag, deps []cnc.Dep) []cnc.Dep {
		if t.S > d.base {
			return deps
		}
		if f == FuncB || f == FuncC || f == FuncD {
			deps = append(deps, d.out[FuncA].Key(ItemKey{t.K, t.K, t.K}))
		}
		if f == FuncD {
			deps = append(deps,
				d.out[FuncB].Key(ItemKey{t.K, t.J, t.K}),
				d.out[FuncC].Key(ItemKey{t.I, t.K, t.K}))
		}
		if t.K > 0 {
			prev := Classify(t.I, t.J, t.K-1)
			deps = append(deps, d.out[prev].Key(ItemKey{t.I, t.J, t.K - 1}))
		}
		d.antiDeps(t, func(fn Func, k ItemKey) bool {
			deps = append(deps, d.out[fn].Key(k))
			return true
		})
		return deps
	}
}

// await enforces one read-write or write-write dependency according to the
// variant's synchronisation style. It returns false when the dependency is
// unsatisfied and the step must retry (non-blocking variant only).
func (d *dataflow) await(f Func, key ItemKey) bool {
	if d.variant == core.NonBlockingCnC {
		_, ok := d.out[f].TryGet(key)
		return ok
	}
	d.out[f].Get(key) // blocking get: aborts and requeues the step when missing
	return true
}

// awaitPrev enforces the write-write dependency on the previous elimination
// step of the same tile.
func (d *dataflow) awaitPrev(t Tag) bool {
	if t.K == 0 {
		return true
	}
	return d.await(Classify(t.I, t.J, t.K-1), ItemKey{t.I, t.J, t.K - 1})
}

// antiDeps enumerates the write-after-read dependencies a base task must
// honour under the Cube shape. GE never needs these: its pivot row/column
// tiles are final after their own phase. FW keeps updating every tile, so
// a task overwriting a tile that served as pivot row/column/diagonal in
// phase K−1 must wait until every phase-K−1 reader of that tile has
// finished — a hazard the flag-based dependency scheme of the paper's
// Listing 5 does not cover (it surfaces as a data race the moment two
// workers run FW concurrently; caught by this repository's race tests).
// The readers' own output items serve as the receipts.
func (d *dataflow) antiDeps(t Tag, f func(Func, ItemKey) bool) bool {
	if d.alg.Shape != Cube || t.K == 0 {
		return true
	}
	p := t.K - 1
	switch {
	case t.I == p && t.J == p:
		// The old diagonal tile was read by every B and C of phase p.
		for x := 0; x < d.tiles; x++ {
			if x == p {
				continue
			}
			if !f(FuncB, ItemKey{p, x, p}) || !f(FuncC, ItemKey{x, p, p}) {
				return false
			}
		}
	case t.I == p:
		// The old pivot-row tile (p, J) was read by D(x, J, p) for x != p.
		for x := 0; x < d.tiles; x++ {
			if x == p {
				continue
			}
			if !f(FuncD, ItemKey{x, t.J, p}) {
				return false
			}
		}
	case t.J == p:
		// The old pivot-column tile (I, p) was read by D(I, x, p), x != p.
		for x := 0; x < d.tiles; x++ {
			if x == p {
				continue
			}
			if !f(FuncD, ItemKey{t.I, x, p}) {
				return false
			}
		}
	}
	return true
}

// awaitAnti blocks on the anti-dependencies (variant-appropriately).
func (d *dataflow) awaitAnti(t Tag) bool {
	return d.antiDeps(t, func(fn Func, k ItemKey) bool { return d.await(fn, k) })
}

// finish runs the kernel for a base tag and publishes its output item.
func (d *dataflow) finish(f Func, t Tag) {
	d.alg.Kernel(d.x, t.I*t.S, t.J*t.S, t.K*t.S, t.S)
	d.out[f].Put(ItemKey{t.I, t.J, t.K}, true)
}

func (d *dataflow) executeA(t Tag) error {
	if t.S > d.base {
		h := t.S / 2
		i := 2 * t.I
		bu := d.g.NewBurst()
		d.tags[FuncA].PutThrottledInto(Tag{i, i, i, h}, bu)
		d.tags[FuncB].PutThrottledInto(Tag{i, i + 1, i, h}, bu)
		d.tags[FuncC].PutThrottledInto(Tag{i + 1, i, i, h}, bu)
		d.tags[FuncD].PutThrottledInto(Tag{i + 1, i + 1, i, h}, bu)
		d.tags[FuncA].PutThrottledInto(Tag{i + 1, i + 1, i + 1, h}, bu)
		if d.alg.Shape == Cube {
			d.tags[FuncB].PutThrottledInto(Tag{i + 1, i, i + 1, h}, bu)
			d.tags[FuncC].PutThrottledInto(Tag{i, i + 1, i + 1, h}, bu)
			d.tags[FuncD].PutThrottledInto(Tag{i, i, i + 1, h}, bu)
		}
		bu.Flush()
		return nil
	}
	if !d.awaitPrev(t) || !d.awaitAnti(t) {
		d.tags[FuncA].Put(t)
		return nil
	}
	d.finish(FuncA, t)
	return nil
}

func (d *dataflow) executeB(t Tag) error {
	if t.S > d.base {
		h := t.S / 2
		i, j, k := 2*t.I, 2*t.J, 2*t.K
		bu := d.g.NewBurst()
		d.tags[FuncB].PutThrottledInto(Tag{i, j, k, h}, bu)
		d.tags[FuncB].PutThrottledInto(Tag{i, j + 1, k, h}, bu)
		d.tags[FuncD].PutThrottledInto(Tag{i + 1, j, k, h}, bu)
		d.tags[FuncD].PutThrottledInto(Tag{i + 1, j + 1, k, h}, bu)
		d.tags[FuncB].PutThrottledInto(Tag{i + 1, j, k + 1, h}, bu)
		d.tags[FuncB].PutThrottledInto(Tag{i + 1, j + 1, k + 1, h}, bu)
		if d.alg.Shape == Cube {
			d.tags[FuncD].PutThrottledInto(Tag{i, j, k + 1, h}, bu)
			d.tags[FuncD].PutThrottledInto(Tag{i, j + 1, k + 1, h}, bu)
		}
		bu.Flush()
		return nil
	}
	if !d.await(FuncA, ItemKey{t.K, t.K, t.K}) || !d.awaitPrev(t) || !d.awaitAnti(t) {
		d.tags[FuncB].Put(t)
		return nil
	}
	d.finish(FuncB, t)
	return nil
}

func (d *dataflow) executeC(t Tag) error {
	if t.S > d.base {
		h := t.S / 2
		i, j, k := 2*t.I, 2*t.J, 2*t.K
		bu := d.g.NewBurst()
		d.tags[FuncC].PutThrottledInto(Tag{i, j, k, h}, bu)
		d.tags[FuncC].PutThrottledInto(Tag{i + 1, j, k, h}, bu)
		d.tags[FuncD].PutThrottledInto(Tag{i, j + 1, k, h}, bu)
		d.tags[FuncD].PutThrottledInto(Tag{i + 1, j + 1, k, h}, bu)
		d.tags[FuncC].PutThrottledInto(Tag{i, j + 1, k + 1, h}, bu)
		d.tags[FuncC].PutThrottledInto(Tag{i + 1, j + 1, k + 1, h}, bu)
		if d.alg.Shape == Cube {
			d.tags[FuncD].PutThrottledInto(Tag{i, j, k + 1, h}, bu)
			d.tags[FuncD].PutThrottledInto(Tag{i + 1, j, k + 1, h}, bu)
		}
		bu.Flush()
		return nil
	}
	if !d.await(FuncA, ItemKey{t.K, t.K, t.K}) || !d.awaitPrev(t) || !d.awaitAnti(t) {
		d.tags[FuncC].Put(t)
		return nil
	}
	d.finish(FuncC, t)
	return nil
}

// executeD is the paper's Listing 5, in structure: the write-write
// dependency on the previous elimination step of the same tile, the three
// read-write dependencies on the A, B and C outputs, then the kernel and
// the output put; the recursive part puts the eight child tags.
func (d *dataflow) executeD(t Tag) error {
	if t.S > d.base {
		h := t.S / 2
		bu := d.g.NewBurst()
		for kk := 0; kk < 2; kk++ {
			for ii := 0; ii < 2; ii++ {
				for jj := 0; jj < 2; jj++ {
					d.tags[FuncD].PutThrottledInto(Tag{2*t.I + ii, 2*t.J + jj, 2*t.K + kk, h}, bu)
				}
			}
		}
		bu.Flush()
		return nil
	}
	ok := d.awaitPrev(t) &&
		d.await(FuncA, ItemKey{t.K, t.K, t.K}) &&
		d.await(FuncB, ItemKey{t.K, t.J, t.K}) &&
		d.await(FuncC, ItemKey{t.I, t.K, t.K}) &&
		d.awaitAnti(t)
	if !ok {
		d.tags[FuncD].Put(t)
		return nil
	}
	d.finish(FuncD, t)
	return nil
}

// TaskCount returns the number of base-case tasks of each function for a
// tiles×tiles grid under the given shape — the recursive algorithm's task
// census, also used by the analytical model.
func TaskCount(tiles int, shape Shape) (a, b, c, dd int) {
	a = tiles
	if shape == Cube {
		b = tiles * (tiles - 1)
		c = tiles * (tiles - 1)
		dd = tiles * (tiles - 1) * (tiles - 1)
		return a, b, c, dd
	}
	for k := 0; k < tiles; k++ {
		b += tiles - 1 - k
		c += tiles - 1 - k
		dd += (tiles - 1 - k) * (tiles - 1 - k)
	}
	return a, b, c, dd
}

// Package sw implements the paper's second benchmark: Smith-Waterman local
// alignment. The DP table has the classic wavefront dependency structure —
// cell (i, j) depends on (i−1, j), (i, j−1) and (i−1, j−1) — so at tile
// granularity the data-flow program exposes Θ(n/b) anti-diagonal
// parallelism, while the fork-join recursion
//
//	R(X) = R(X00); R(X01) ∥ R(X10); R(X11)
//
// inserts a join between the anti-diagonals of different recursion levels.
// That join is the artificial dependency the paper highlights: it blocks
// wavefront pipelining (tile (2,0) cannot start when (1,0) finishes — it
// must wait for the whole X00∥X10-subtree barrier), which is why SW is the
// benchmark where data-flow beats fork-join at every problem size.
package sw

import (
	"context"
	"fmt"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

// Problem bundles one SW instance: two sequences of equal power-of-two
// length and a scoring scheme. The DP table is (N+1)×(N+1) with the zero
// row/column boundary.
type Problem struct {
	A, B    []byte
	Scoring kernels.Scoring
	// Trace, when non-nil, brackets every base-tile kernel invocation in
	// every driver: the returned func is called when the kernel finishes
	// (the sched report's utilisation probe).
	Trace func() func()
}

// kernel applies the SW base-case kernel at table coordinates (i, j) under
// the optional Trace hook. Callers pass the already-shifted 1+tile origin.
func (p *Problem) kernel(h *matrix.Dense, i, j, s int) {
	if p.Trace != nil {
		done := p.Trace()
		defer done()
	}
	kernels.SW(h, p.A, p.B, p.Scoring, i, j, s)
}

// N returns the sequence length.
func (p *Problem) N() int { return len(p.A) }

// NewTable allocates the (N+1)×(N+1) DP table.
func (p *Problem) NewTable() *matrix.Dense { return matrix.New(p.N()+1, p.N()+1) }

func (p *Problem) validate(h *matrix.Dense, base int) error {
	n := p.N()
	if len(p.B) != n {
		return fmt.Errorf("sw: sequences must have equal length, got %d and %d", n, len(p.B))
	}
	if !matrix.IsPow2(n) {
		return fmt.Errorf("sw: length %d must be a power of two", n)
	}
	if h.Rows() != n+1 || h.Cols() != n+1 {
		return fmt.Errorf("sw: table must be %dx%d, got %dx%d", n+1, n+1, h.Rows(), h.Cols())
	}
	if base < 1 {
		return fmt.Errorf("sw: base %d must be >= 1", base)
	}
	return nil
}

// Serial fills the table with the straightforward loop and returns the
// maximum local-alignment score.
func (p *Problem) Serial(h *matrix.Dense) float64 {
	return kernels.SWSerial(h, p.A, p.B, p.Scoring)
}

// Linear computes the score in O(n) space (the paper's space optimisation).
func (p *Problem) Linear() float64 { return kernels.SWLinear(p.A, p.B, p.Scoring) }

// RDPSerial runs the 2-way recursive divide-and-conquer SW serially.
func (p *Problem) RDPSerial(h *matrix.Dense, base int) (float64, error) {
	if err := p.validate(h, base); err != nil {
		return 0, err
	}
	p.recurse(h, 0, 0, p.N(), base)
	return kernels.MaxScore(h), nil
}

func (p *Problem) recurse(h *matrix.Dense, i0, j0, s, base int) {
	if s <= base {
		p.kernel(h, 1+i0, 1+j0, s)
		return
	}
	half := s / 2
	p.recurse(h, i0, j0, half, base)
	p.recurse(h, i0, j0+half, half, base)
	p.recurse(h, i0+half, j0, half, base)
	p.recurse(h, i0+half, j0+half, half, base)
}

// ForkJoin runs the fork-join R-DP SW on pool: R(X00); R(X01) ∥ R(X10);
// join; R(X11), with the same structure recursively.
func (p *Problem) ForkJoin(h *matrix.Dense, base int, pool *forkjoin.Pool) (float64, error) {
	return p.ForkJoinContext(context.Background(), h, base, pool)
}

// ForkJoinContext is ForkJoin with cooperative cancellation: a cancelled
// ctx unwinds the recursion and returns ctx.Err() with a partial table.
func (p *Problem) ForkJoinContext(ctx context.Context, h *matrix.Dense, base int, pool *forkjoin.Pool) (float64, error) {
	if err := p.validate(h, base); err != nil {
		return 0, err
	}
	r := &fjSW{p: p, h: h, base: base}
	if err := pool.RunContext(ctx, func(c *forkjoin.Ctx) { r.recurse(c, 0, 0, p.N()) }); err != nil {
		return 0, err
	}
	return kernels.MaxScore(h), nil
}

// declareRace reports the wavefront access set of one base tile to the
// pool's race detector when the run is race-checked: tile (ti, tj) is
// written and its west, north and north-west neighbours are read (the SW
// kernel reads their boundary row/column out of the shared table).
func declareRace(c *forkjoin.Ctx, ti, tj int) {
	f := c.Race()
	if f == nil {
		return
	}
	f.Write(determinacy.TileCell(ti, tj))
	if ti > 0 {
		f.Read(determinacy.TileCell(ti-1, tj))
	}
	if tj > 0 {
		f.Read(determinacy.TileCell(ti, tj-1))
	}
	if ti > 0 && tj > 0 {
		f.Read(determinacy.TileCell(ti-1, tj-1))
	}
}

// fjSW is the per-run state of the recursive fork-join driver: the problem,
// the table and the base-case threshold, bundled so spawns can go through
// the closure-free SpawnCall trampoline.
type fjSW struct {
	p    *Problem
	h    *matrix.Dense
	base int
}

func swCallRecurse(c *forkjoin.Ctx, recv any, a [4]int) {
	recv.(*fjSW).recurse(c, a[0], a[1], a[2])
}

func (r *fjSW) recurse(ctx *forkjoin.Ctx, i0, j0, s int) {
	if s <= r.base {
		declareRace(ctx, i0/s, j0/s)
		r.p.kernel(r.h, 1+i0, 1+j0, s)
		return
	}
	half := s / 2
	r.recurse(ctx, i0, j0, half)
	var g forkjoin.Group
	ctx.SpawnCall(&g, swCallRecurse, r, [4]int{i0, j0 + half, half})
	ctx.SpawnCall(&g, swCallRecurse, r, [4]int{i0 + half, j0, half})
	ctx.Wait(&g) // artificial dependency: X11 waits for both anti-diagonal halves
	r.recurse(ctx, i0+half, j0+half, half)
}

// TileTag identifies a recursive block (I, J) of size S (in units of S), as
// in the GEP tags but without a K dimension — SW has a single pass.
type TileTag struct {
	I, J int
	S    int
}

// TileKey identifies a completed base tile in the item collection.
type TileKey struct {
	I, J int
}

// NewCnCGraph builds the static CnC structure of the SW program — one step
// collection prescribed by one tag collection, synchronised through one
// item collection of finished tiles — without running it.
func NewCnCGraph(name string) *cnc.Graph {
	g := cnc.NewGraph(name, 1)
	out := cnc.NewItemCollection[TileKey, bool](g, "tile_outputs")
	tags := cnc.NewTagCollection[TileTag](g, "tile_tags", false)
	step := cnc.NewStepCollection(g, "swTile", func(TileTag) error { return nil })
	step.Consumes(out).Produces(out)
	tags.Prescribe(step)
	return g
}

// RunCnC runs the data-flow SW: one step collection prescribed by one tag
// collection, one item collection of finished tiles. Base tiles fire as
// soon as their west, north and north-west neighbours are done — the
// wavefront the fork-join version cannot express.
func (p *Problem) RunCnC(h *matrix.Dense, base, workers int, variant core.Variant) (float64, gep.CnCStats, error) {
	return p.RunCnCContext(context.Background(), h, base, workers, variant, nil)
}

// RunCnCContext is RunCnC with cooperative cancellation; tune, when
// non-nil, receives the built graph before the run starts (the chaos
// harness's injection hook).
func (p *Problem) RunCnCContext(ctx context.Context, h *matrix.Dense, base, workers int, variant core.Variant, tune func(*cnc.Graph)) (float64, gep.CnCStats, error) {
	if err := p.validate(h, base); err != nil {
		return 0, gep.CnCStats{}, err
	}
	n := p.N()
	bs := gep.BaseSize(n, base)
	tiles := n / bs

	g := cnc.NewGraph("sw-"+variant.String(), workers)
	out := cnc.NewItemCollection[TileKey, bool](g, "tile_outputs")
	tags := cnc.NewTagCollection[TileTag](g, "tile_tags", false)

	await := func(k TileKey) bool {
		if variant == core.NonBlockingCnC {
			_, ok := out.TryGet(k)
			return ok
		}
		out.Get(k)
		return true
	}
	step := cnc.NewStepCollection(g, "swTile", func(t TileTag) error {
		if t.S > base {
			half := t.S / 2
			bu := g.NewBurst()
			tags.PutThrottledInto(TileTag{2 * t.I, 2 * t.J, half}, bu)
			tags.PutThrottledInto(TileTag{2 * t.I, 2*t.J + 1, half}, bu)
			tags.PutThrottledInto(TileTag{2*t.I + 1, 2 * t.J, half}, bu)
			tags.PutThrottledInto(TileTag{2*t.I + 1, 2*t.J + 1, half}, bu)
			bu.Flush()
			return nil
		}
		if t.I > 0 && !await(TileKey{t.I - 1, t.J}) ||
			t.J > 0 && !await(TileKey{t.I, t.J - 1}) ||
			t.I > 0 && t.J > 0 && !await(TileKey{t.I - 1, t.J - 1}) {
			tags.Put(t)
			return nil
		}
		p.kernel(h, 1+t.I*t.S, 1+t.J*t.S, t.S)
		out.Put(TileKey{t.I, t.J}, true)
		return nil
	})
	step.Consumes(out).Produces(out)

	// Append form: the runtime hands in a pooled scratch buffer, so
	// declaring an instance's dependencies allocates nothing.
	deps := func(t TileTag, ds []cnc.Dep) []cnc.Dep {
		if t.S > base {
			return ds
		}
		if t.I > 0 {
			ds = append(ds, out.Key(TileKey{t.I - 1, t.J}))
		}
		if t.J > 0 {
			ds = append(ds, out.Key(TileKey{t.I, t.J - 1}))
		}
		if t.I > 0 && t.J > 0 {
			ds = append(ds, out.Key(TileKey{t.I - 1, t.J - 1}))
		}
		return ds
	}
	switch variant {
	case core.TunerCnC:
		step.WithDepsAppend(cnc.TunedPrescheduled, deps)
	case core.ManualCnC:
		step.WithDepsAppend(cnc.TunedTriggered, deps)
	}
	tags.Prescribe(step)

	// Memory contract (see internal/cnc: WithGetCount / WithMemoryLimit).
	// Tile (i, j) is read by its east, south and south-east neighbours, so
	// its get-count is the number of those that exist; interior tiles free
	// after exactly three reads, the last row/column after one, and the
	// corner (T−1, T−1) frees immediately on put. NonBlockingCnC is
	// excluded: its poll-miss re-put retires one successful step instance
	// per poll, which would release dependencies more than once.
	if variant != core.NonBlockingCnC {
		tile := bs * bs * 8
		out.WithGetCount(func(k TileKey) int {
			c := 0
			if k.I+1 < tiles {
				c++
			}
			if k.J+1 < tiles {
				c++
			}
			if k.I+1 < tiles && k.J+1 < tiles {
				c++
			}
			return c
		}).WithSizeOf(func(TileKey) int { return tile })
		step.WithGetsAppend(deps)
		tags.WithTagBytes(func(t TileTag) int {
			if t.S > base {
				return 0 // split tags only fan out; base tiles carry the data
			}
			return tile
		})
	}
	if tune != nil {
		tune(g)
	}

	err := g.RunContext(ctx, func() {
		if variant == core.ManualCnC {
			// One burst per anti-diagonal row: the whole grid's tags reach
			// the queue in tiles batched pushes instead of tiles² singles.
			for i := 0; i < tiles; i++ {
				bu := g.NewBurst()
				for j := 0; j < tiles; j++ {
					tags.PutThrottledInto(TileTag{i, j, bs}, bu)
				}
				bu.Flush()
			}
			return
		}
		tags.PutThrottled(TileTag{0, 0, n})
	})
	// Puts, not Len: with get-counts active Len is the *live* census and
	// drops to zero as tiles are garbage-collected.
	stats := gep.CnCStats{Stats: g.Stats(), BaseTasks: int(out.Puts())}
	if err != nil {
		return 0, stats, err
	}
	return kernels.MaxScore(h), stats, nil
}

// ForkJoinWavefront runs the tiled wavefront with one taskwait barrier per
// anti-diagonal — the alternative fork-join formulation the paper's
// footnote 6 describes ("in fork-join implementation, there is a barrier
// synchronization for every wavefront computation"). Its span is the
// optimal 2T−1 diagonals, but every diagonal is a full barrier: a tile
// cannot start until ALL tiles of the previous diagonal finish, not just
// its three neighbours, so it still under-utilises relative to data-flow
// when tile costs vary or workers outnumber the diagonal width.
func (p *Problem) ForkJoinWavefront(h *matrix.Dense, base int, pool *forkjoin.Pool) (float64, error) {
	if err := p.validate(h, base); err != nil {
		return 0, err
	}
	bs := gep.BaseSize(p.N(), base)
	tiles := p.N() / bs
	r := &fjSW{p: p, h: h, base: bs}
	pool.Run(func(ctx *forkjoin.Ctx) {
		var g forkjoin.Group
		for d := 0; d < 2*tiles-1; d++ {
			lo := 0
			if d >= tiles {
				lo = d - tiles + 1
			}
			hi := d
			if hi >= tiles {
				hi = tiles - 1
			}
			for i := lo; i <= hi; i++ {
				ctx.SpawnCall(&g, swCallTile, r, [4]int{i, d - i})
			}
			ctx.Wait(&g) // barrier per wavefront
		}
	})
	return kernels.MaxScore(h), nil
}

// swCallTile runs one base tile of the wavefront schedule; fjSW.base holds
// the resolved tile side.
func swCallTile(c *forkjoin.Ctx, recv any, a [4]int) {
	r := recv.(*fjSW)
	ti, tj := a[0], a[1]
	declareRace(c, ti, tj)
	r.p.kernel(r.h, 1+ti*r.base, 1+tj*r.base, r.base)
}

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
	// (dpperf's traced pass reads kernel busy time through it).
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

// The recurrence is stated once, here: the schedule walk (walk, Walk) and
// the dependency relation on base tiles (Preds, Succs). The serial,
// fork-join and CnC drivers below and internal/dag's two SW graphs
// interpret them.

// walk iterates the r×r sub-blocks of one call by anti-diagonal: the blocks
// of a diagonal are independent and successive diagonals are stages, so
// r = 2 is R(X00); R(X01) ∥ R(X10); R(X11) and r = tiles the flat tiled
// wavefront. A value iterator: the fork-join driver makes one per call.
type walk struct {
	t       TileTag
	r, d, i int // the next sub-block is (i, d−i) on diagonal d
}

func (w *walk) next() (sub TileTag, last, ok bool) {
	r := w.r
	if w.d > 2*r-2 {
		return TileTag{}, false, false
	}
	sub = TileTag{r*w.t.I + w.i, r*w.t.J + w.d - w.i, w.t.S / r}
	if last = w.i == min(w.d, r-1); last {
		w.d++
		w.i = max(0, w.d-r+1)
	} else {
		w.i++
	}
	return sub, last, true
}

// Walk visits the sub-calls of call t split r ways, in schedule order; last
// marks the final call of a stage.
func Walk(t TileTag, r int, visit func(sub TileTag, last bool)) {
	for w := (walk{t: t, r: r}); ; {
		sub, last, ok := w.next()
		if !ok {
			return
		}
		visit(sub, last)
	}
}

// Preds visits the tiles that tile t must wait for — its north, west and
// north-west neighbours, whose boundary row, column and corner its kernel
// reads — until f returns false.
func Preds(_ int, t TileKey, f func(TileKey) bool) bool {
	return (t.I == 0 || f(TileKey{t.I - 1, t.J})) &&
		(t.J == 0 || f(TileKey{t.I, t.J - 1})) &&
		(t.I == 0 || t.J == 0 || f(TileKey{t.I - 1, t.J - 1}))
}

// Succs is the inverse of Preds on a tiles×tiles grid: the south, east and
// south-east neighbours. Their number is the get-count of t's receipt —
// three in the interior, one on the last row and column, none at the corner.
func Succs(tiles int, t TileKey, f func(TileKey) bool) bool {
	s, e := t.I+1 < tiles, t.J+1 < tiles
	return (!s || f(TileKey{t.I + 1, t.J})) &&
		(!e || f(TileKey{t.I, t.J + 1})) &&
		(!s || !e || f(TileKey{t.I + 1, t.J + 1}))
}

// driver interprets the walk on a table, serially or on the fork-join pool;
// bs is the side of a base tile and r the arity of the split.
type driver struct {
	p     *Problem
	h     *matrix.Dense
	bs, r int
}

func (p *Problem) newDriver(h *matrix.Dense, base int) (*driver, error) {
	if err := p.validate(h, base); err != nil {
		return nil, err
	}
	return &driver{p: p, h: h, bs: gep.BaseSize(p.N(), base), r: 2}, nil
}

func (d *driver) root() TileTag { return TileTag{S: d.p.N()} }

func (d *driver) kernel(t TileTag) { d.p.kernel(d.h, 1+t.I*t.S, 1+t.J*t.S, t.S) }

func (d *driver) serial(t TileTag) {
	if t.S == d.bs {
		d.kernel(t)
		return
	}
	for w := (walk{t: t, r: d.r}); ; {
		sub, _, ok := w.next()
		if !ok {
			return
		}
		d.serial(sub)
	}
}

// swCall is the closure-free spawn trampoline (see forkjoin.Ctx.SpawnCall).
func swCall(c *forkjoin.Ctx, recv any, a [4]int) {
	recv.(*driver).forkJoin(c, TileTag{a[0], a[1], a[2]})
}

// forkJoin spawns the calls of a stage and waits for all of them before the
// next: X11 waits for both anti-diagonal halves whatever it reads of them —
// the artificial dependency. A stage of one call runs on the caller.
func (d *driver) forkJoin(c *forkjoin.Ctx, t TileTag) {
	if t.S == d.bs {
		declareRace(c, t.I, t.J)
		d.kernel(t)
		return
	}
	var g forkjoin.Group
	spawned := false
	for w := (walk{t: t, r: d.r}); ; {
		sub, last, ok := w.next()
		switch {
		case !ok:
			return
		case last && !spawned:
			d.forkJoin(c, sub)
		default:
			c.SpawnCall(&g, swCall, d, [4]int{sub.I, sub.J, sub.S})
			spawned = !last
			if last {
				c.Wait(&g)
			}
		}
	}
}

// RDPSerial runs the 2-way recursive divide-and-conquer SW serially.
func (p *Problem) RDPSerial(h *matrix.Dense, base int) (float64, error) {
	d, err := p.newDriver(h, base)
	if err != nil {
		return 0, err
	}
	d.serial(d.root())
	return kernels.MaxScore(h), nil
}

// ForkJoin runs the fork-join R-DP SW on pool: R(X00); R(X01) ∥ R(X10);
// join; R(X11), with the same structure recursively.
func (p *Problem) ForkJoin(h *matrix.Dense, base int, pool *forkjoin.Pool) (float64, error) {
	return p.ForkJoinContext(context.Background(), h, base, pool)
}

// ForkJoinContext is ForkJoin with cooperative cancellation: a cancelled
// ctx unwinds the recursion and returns ctx.Err() with a partial table.
func (p *Problem) ForkJoinContext(ctx context.Context, h *matrix.Dense, base int, pool *forkjoin.Pool) (float64, error) {
	d, err := p.newDriver(h, base)
	if err != nil {
		return 0, err
	}
	if err := pool.RunContext(ctx, func(c *forkjoin.Ctx) { d.forkJoin(c, d.root()) }); err != nil {
		return 0, err
	}
	return kernels.MaxScore(h), nil
}

// ForkJoinWavefront runs the tiled wavefront with one taskwait barrier per
// anti-diagonal — the alternative fork-join formulation the paper's
// footnote 6 describes ("in fork-join implementation, there is a barrier
// synchronization for every wavefront computation"): the walk split tiles
// ways. Its span is the optimal 2T−1 diagonals, but every diagonal is a
// full barrier: a tile cannot start until ALL tiles of the previous
// diagonal finish, not just its three neighbours, so it still
// under-utilises relative to data-flow when tile costs vary or workers
// outnumber the diagonal width.
func (p *Problem) ForkJoinWavefront(h *matrix.Dense, base int, pool *forkjoin.Pool) (float64, error) {
	d, err := p.newDriver(h, base)
	if err != nil {
		return 0, err
	}
	d.r = p.N() / d.bs
	pool.Run(func(c *forkjoin.Ctx) { d.forkJoin(c, d.root()) })
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
	Preds(0, TileKey{ti, tj}, func(k TileKey) bool {
		f.Read(determinacy.TileCell(k.I, k.J))
		return true
	})
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
	p := &Problem{A: make([]byte, 4), B: make([]byte, 4)}
	return p.flow(nil, 1).Spec(name, core.NativeCnC)
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
	stats, err := p.flow(h, base).Run(ctx, "sw-"+variant.String(), workers, variant, tune)
	if err != nil {
		return 0, stats, err
	}
	return kernels.MaxScore(h), stats, nil
}

// flow states the recurrence for the shared data-flow interpreter
// (gep.Flow): tags are calls of the 2-way walk, a call of base-tile side is
// a base tile.
func (p *Problem) flow(h *matrix.Dense, base int) *gep.Flow[TileTag, TileKey] {
	bs := gep.BaseSize(p.N(), base)
	tiles := p.N() / bs
	return &gep.Flow[TileTag, TileKey]{
		Colls: [][3]string{{"swTile", "tile_tags", "tile_outputs"}},
		Task:  func(t TileTag) (TileKey, bool) { return TileKey{t.I, t.J}, t.S == bs },
		Walk: func(t TileTag, flat bool, visit func(TileTag, bool)) {
			r := 2
			if flat {
				r = t.S / bs
			}
			Walk(t, r, visit)
		},
		Preds: func(k TileKey, f func(TileKey) bool) bool { return Preds(tiles, k, f) },
		Succs: func(k TileKey, f func(TileKey) bool) bool { return Succs(tiles, k, f) },
		Kernel: func(k TileKey) error {
			p.kernel(h, 1+k.I*bs, 1+k.J*bs, bs)
			return nil
		},
		Root:      TileTag{S: p.N()},
		TileBytes: bs * bs * 8,
	}
}

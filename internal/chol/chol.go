// Package chol implements tiled Cholesky factorisation — the flagship CnC
// case study of the paper's related work (§V: Chandramowlishwaran et al.
// matched or beat MKL with a CnC Cholesky; Budimlić et al. used it to show
// CnC thread scaling). It factors a symmetric positive-definite matrix A
// into L·Lᵀ with the classic three-kernel tile algorithm:
//
//	POTRF(K):      Cholesky of diagonal tile (K,K)
//	TRSM(I,K):     triangular solve of tile (I,K) against L(K,K), I > K
//	UPDATE(I,J,K): A(I,J) -= L(I,K)·L(J,K)ᵀ, K < J <= I
//
// The data-flow dependencies mirror the GE structure (the paper's Fig 2
// family): POTRF(K) ← UPDATE(K,K,K−1); TRSM(I,K) ← POTRF(K) and
// UPDATE(I,K,K−1); UPDATE(I,J,K) ← TRSM(I,K), TRSM(J,K) and
// UPDATE(I,J,K−1). The fork-join version joins after each kernel batch of
// a phase — the right-looking schedule with barriers.
package chol

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/matrix"
)

// NewSPD generates a random symmetric positive-definite n×n matrix
// (B·Bᵀ/n + I for random B), suitable for Cholesky without pivoting.
func NewSPD(n int, rng *rand.Rand) *matrix.Dense {
	b := matrix.NewSquare(n)
	b.FillRandom(rng, -1, 1)
	a := matrix.NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += b.At(i, k) * b.At(j, k)
			}
			v := sum/float64(n) + boolTo(i == j)
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Serial factors a in place (lower triangle becomes L; the strict upper
// triangle is left untouched). It returns an error on a non-positive
// pivot (a not SPD).
func Serial(a *matrix.Dense) error {
	n := a.Rows()
	for k := 0; k < n; k++ {
		d := a.At(k, k)
		if d <= 0 {
			return fmt.Errorf("chol: non-positive pivot %g at %d", d, k)
		}
		dk := math.Sqrt(d)
		a.Set(k, k, dk)
		for i := k + 1; i < n; i++ {
			a.Set(i, k, a.At(i, k)/dk)
		}
		for j := k + 1; j < n; j++ {
			ljk := a.At(j, k)
			for i := j; i < n; i++ {
				a.Set(i, j, a.At(i, j)-a.At(i, k)*ljk)
			}
		}
	}
	return nil
}

// The three tile kernels, all operating on the full matrix with global
// tile coordinates and tile side bs. They apply exactly the same
// per-element operations in the same order as Serial, so all drivers
// produce bit-identical factors.

func potrf(a *matrix.Dense, kt, bs int) error {
	lo := kt * bs
	for k := lo; k < lo+bs; k++ {
		d := a.At(k, k)
		if d <= 0 {
			return fmt.Errorf("chol: non-positive pivot %g at %d", d, k)
		}
		dk := math.Sqrt(d)
		a.Set(k, k, dk)
		for i := k + 1; i < lo+bs; i++ {
			a.Set(i, k, a.At(i, k)/dk)
		}
		for j := k + 1; j < lo+bs; j++ {
			ljk := a.At(j, k)
			for i := j; i < lo+bs; i++ {
				a.Set(i, j, a.At(i, j)-a.At(i, k)*ljk)
			}
		}
	}
	return nil
}

func trsm(a *matrix.Dense, it, kt, bs int) {
	iLo, kLo := it*bs, kt*bs
	for k := kLo; k < kLo+bs; k++ {
		dk := a.At(k, k)
		for i := iLo; i < iLo+bs; i++ {
			a.Set(i, k, a.At(i, k)/dk)
		}
		for j := k + 1; j < kLo+bs; j++ {
			ljk := a.At(j, k)
			for i := iLo; i < iLo+bs; i++ {
				a.Set(i, j, a.At(i, j)-a.At(i, k)*ljk)
			}
		}
	}
}

func update(a *matrix.Dense, it, jt, kt, bs int) {
	iLo, jLo, kLo := it*bs, jt*bs, kt*bs
	for k := kLo; k < kLo+bs; k++ {
		for j := jLo; j < jLo+bs; j++ {
			ljk := a.At(j, k)
			iStart := iLo
			if it == jt && j > iStart {
				iStart = j // diagonal tiles update only the lower part
			}
			for i := iStart; i < iLo+bs; i++ {
				a.Set(i, j, a.At(i, j)-a.At(i, k)*ljk)
			}
		}
	}
}

func validate(a *matrix.Dense, base int) error {
	n := a.Rows()
	if n != a.Cols() {
		return fmt.Errorf("chol: matrix must be square, got %dx%d", n, a.Cols())
	}
	if !matrix.IsPow2(n) {
		return fmt.Errorf("chol: side %d must be a power of two", n)
	}
	if base < 1 {
		return fmt.Errorf("chol: base %d must be >= 1", base)
	}
	return nil
}

// TiledSerial runs the right-looking tile algorithm serially.
func TiledSerial(a *matrix.Dense, base int) error {
	if err := validate(a, base); err != nil {
		return err
	}
	bs := gep.BaseSize(a.Rows(), base)
	tiles := a.Rows() / bs
	for k := 0; k < tiles; k++ {
		if err := potrf(a, k, bs); err != nil {
			return err
		}
		for i := k + 1; i < tiles; i++ {
			trsm(a, i, k, bs)
		}
		for j := k + 1; j < tiles; j++ {
			for i := j; i < tiles; i++ {
				update(a, i, j, k, bs)
			}
		}
	}
	return nil
}

// ForkJoinContext runs the right-looking schedule on the pool with a
// taskwait after the TRSM batch and after the UPDATE batch of each phase. A
// cancelled ctx unwinds the recursion and returns ctx.Err() with a partial
// factor. trace, when non-nil, brackets every tile kernel invocation — the
// returned func is called when the kernel finishes (the sched report's
// utilisation probe).
func ForkJoinContext(ctx context.Context, a *matrix.Dense, base int, pool *forkjoin.Pool, trace func() func()) error {
	if err := validate(a, base); err != nil {
		return err
	}
	bs := gep.BaseSize(a.Rows(), base)
	tiles := a.Rows() / bs
	span := traceFn(trace)
	r := &fjChol{a: a, bs: bs, span: span}
	var firstErr error
	err := pool.RunContext(ctx, func(fjc *forkjoin.Ctx) {
		var g forkjoin.Group
		for k := 0; k < tiles; k++ {
			declareRace(fjc, k, k)
			done := span()
			err := potrf(a, k, bs)
			done()
			if err != nil {
				firstErr = err
				return
			}
			for i := k + 1; i < tiles; i++ {
				fjc.SpawnCall(&g, cholCallTrsm, r, [4]int{i, k})
			}
			fjc.Wait(&g)
			for j := k + 1; j < tiles; j++ {
				for i := j; i < tiles; i++ {
					fjc.SpawnCall(&g, cholCallUpdate, r, [4]int{i, j, k})
				}
			}
			fjc.Wait(&g)
		}
	})
	if err != nil {
		return err
	}
	return firstErr
}

// fjChol bundles the per-run state of the fork-join schedule so the TRSM
// and UPDATE batches — the O(tiles²) and O(tiles³) spawn sites — go through
// the closure-free SpawnCall trampolines.
type fjChol struct {
	a    *matrix.Dense
	bs   int
	span func() func()
}

func cholCallTrsm(c *forkjoin.Ctx, recv any, t [4]int) {
	r := recv.(*fjChol)
	i, k := t[0], t[1]
	declareRace(c, i, k, [2]int{k, k})
	done := r.span()
	trsm(r.a, i, k, r.bs)
	done()
}

func cholCallUpdate(c *forkjoin.Ctx, recv any, t [4]int) {
	r := recv.(*fjChol)
	i, j, k := t[0], t[1], t[2]
	declareRace(c, i, j, [2]int{i, k}, [2]int{j, k})
	done := r.span()
	update(r.a, i, j, k, r.bs)
	done()
}

// declareRace reports one tile kernel's access set — written tile (wi, wj)
// plus the read tiles — to the pool's race detector when the run is
// race-checked. Reads equal to the written tile are implied and skipped.
func declareRace(c *forkjoin.Ctx, wi, wj int, reads ...[2]int) {
	f := c.Race()
	if f == nil {
		return
	}
	w := determinacy.TileCell(wi, wj)
	f.Write(w)
	for _, r := range reads {
		if cell := determinacy.TileCell(r[0], r[1]); cell != w {
			f.Read(cell)
		}
	}
}

// traceFn normalises an optional trace hook into an always-callable span
// opener.
func traceFn(trace func() func()) func() func() {
	if trace == nil {
		return func() func() { return func() {} }
	}
	return trace
}

// Tag identifies one tile task: Kind 0 = POTRF, 1 = TRSM, 2 = UPDATE.
type Tag struct {
	Kind    int
	I, J, K int
}

// Key identifies a finished tile state in the item collection.
type Key struct {
	Kind    int
	I, J, K int
}

// The task/item kinds of the Tag.Kind / Key.Kind fields.
const (
	KindPotrf = iota
	KindTrsm
	KindUpdate
)

// NewCnCGraph builds the static CnC structure of the Cholesky program —
// one step collection prescribed by one tag collection, synchronised
// through one item collection of finished tile states — without running
// it (cmd/cncgraph's description and DOT renderings).
func NewCnCGraph(name string) *cnc.Graph {
	g := cnc.NewGraph(name, 1)
	out := cnc.NewItemCollection[Key, bool](g, "tile_outputs")
	tags := cnc.NewTagCollection[Tag](g, "tasks", false)
	step := cnc.NewStepCollection(g, "cholTask", func(Tag) error { return nil })
	step.Consumes(out).Produces(out)
	tags.Prescribe(step)
	return g
}

// RunCnCContext runs the data-flow Cholesky: one step collection with the
// dependency structure above, items at base-tile granularity. A cancelled
// ctx drains the graph and returns ctx.Err(). tune, when non-nil, receives
// the built graph before the run starts (the chaos harness's fault
// injection and the memory report's WithMemoryLimit hook); trace, when
// non-nil, brackets every tile kernel invocation.
//
// For the GC-enabled schedules (everything but NonBlockingCnC) it declares
// the memory contract: every tile receipt's consumer count is known in
// closed form, so get-count GC frees it as its last reader completes and
// Graph.WithMemoryLimit can throttle the environment's tag sprint. With
// T = tiles per side the consumer counts are
//
//   - POTRF(k): one per TRSM(i,k), i > k → T−1−k (the last diagonal frees
//     on put);
//   - TRSM(i,k): the UPDATEs of row i (i−k of them, counting the diagonal
//     task once) plus those of column i below the diagonal (T−1−i)
//     → T−k−1;
//   - UPDATE(i,j,k): exactly the phase-k+1 task on tile (i,j), which always
//     exists (j ≥ k+1) → 1.
//
// The diagonal UPDATE's step body blocking-gets TRSM(i,k) twice (as row and
// column factor), but releases fire per declared dependency at completion,
// not per Get, so the deduplicated deps list below is also the exact
// release set.
func RunCnCContext(ctx context.Context, a *matrix.Dense, base, workers int, variant core.Variant, tune func(*cnc.Graph), trace func() func()) (gep.CnCStats, error) {
	if err := validate(a, base); err != nil {
		return gep.CnCStats{}, err
	}
	bs := gep.BaseSize(a.Rows(), base)
	tiles := a.Rows() / bs

	g := cnc.NewGraph("chol-"+variant.String(), workers)
	out := cnc.NewItemCollection[Key, bool](g, "tile_outputs")
	tags := cnc.NewTagCollection[Tag](g, "tasks", false)
	span := traceFn(trace)

	await := func(k Key) bool {
		if variant == core.NonBlockingCnC {
			_, ok := out.TryGet(k)
			return ok
		}
		out.Get(k)
		return true
	}
	// prevUpdate is the write-write dependency on the same tile's previous
	// phase (absent at K == 0).
	prevUpdate := func(i, j, k int) (Key, bool) {
		if k == 0 {
			return Key{}, false
		}
		return Key{KindUpdate, i, j, k - 1}, true
	}
	step := cnc.NewStepCollection(g, "cholTask", func(t Tag) error {
		switch t.Kind {
		case KindPotrf:
			if p, ok := prevUpdate(t.K, t.K, t.K); ok && !await(p) {
				tags.Put(t)
				return nil
			}
			done := span()
			err := potrf(a, t.K, bs)
			done()
			if err != nil {
				return err
			}
			out.Put(Key{KindPotrf, t.K, t.K, t.K}, true)
		case KindTrsm:
			if !await(Key{KindPotrf, t.K, t.K, t.K}) {
				tags.Put(t)
				return nil
			}
			if p, ok := prevUpdate(t.I, t.K, t.K); ok && !await(p) {
				tags.Put(t)
				return nil
			}
			done := span()
			trsm(a, t.I, t.K, bs)
			done()
			out.Put(Key{KindTrsm, t.I, t.K, t.K}, true)
		default:
			ok := await(Key{KindTrsm, t.I, t.K, t.K}) && await(Key{KindTrsm, t.J, t.K, t.K})
			if ok {
				if p, pOK := prevUpdate(t.I, t.J, t.K); pOK {
					ok = await(p)
				}
			}
			if !ok {
				tags.Put(t)
				return nil
			}
			done := span()
			update(a, t.I, t.J, t.K, bs)
			done()
			out.Put(Key{KindUpdate, t.I, t.J, t.K}, true)
		}
		return nil
	})
	step.Consumes(out).Produces(out)

	// Append form: the runtime hands in a pooled scratch buffer, so
	// declaring an instance's dependencies allocates nothing.
	deps := func(t Tag, ds []cnc.Dep) []cnc.Dep {
		add := func(k Key) { ds = append(ds, out.Key(k)) }
		switch t.Kind {
		case KindPotrf:
			if p, ok := prevUpdate(t.K, t.K, t.K); ok {
				add(p)
			}
		case KindTrsm:
			add(Key{KindPotrf, t.K, t.K, t.K})
			if p, ok := prevUpdate(t.I, t.K, t.K); ok {
				add(p)
			}
		default:
			add(Key{KindTrsm, t.I, t.K, t.K})
			if t.J != t.I {
				add(Key{KindTrsm, t.J, t.K, t.K})
			}
			if p, ok := prevUpdate(t.I, t.J, t.K); ok {
				add(p)
			}
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

	// Memory contract (consumer counts derived in the doc comment above).
	// NonBlockingCnC is excluded: its poll-miss re-put retires one
	// successful step instance per poll, which would release the declared
	// read set once per poll instead of once per tile.
	if variant != core.NonBlockingCnC {
		tile := bs * bs * 8
		out.WithGetCount(func(k Key) int {
			switch k.Kind {
			case KindPotrf:
				return tiles - 1 - k.K
			case KindTrsm:
				return tiles - k.K - 1
			default: // KindUpdate
				return 1
			}
		}).WithSizeOf(func(Key) int { return tile })
		step.WithGetsAppend(deps)
		// Every tag is a base task here (the environment expands the task
		// space itself), so each admitted tag materialises one tile.
		tags.WithTagBytes(func(Tag) int { return tile })
	}
	if tune != nil {
		tune(g)
	}

	err := g.RunContext(ctx, func() {
		// One burst per elimination phase: each phase's O(tiles²) tags hit
		// the queue in one batched push and wakeup pass. Under a memory
		// limit the throttled path defers tags individually as before.
		for k := 0; k < tiles; k++ {
			bu := g.NewBurst()
			tags.PutThrottledInto(Tag{KindPotrf, k, k, k}, bu)
			for i := k + 1; i < tiles; i++ {
				tags.PutThrottledInto(Tag{KindTrsm, i, k, k}, bu)
			}
			for j := k + 1; j < tiles; j++ {
				for i := j; i < tiles; i++ {
					tags.PutThrottledInto(Tag{KindUpdate, i, j, k}, bu)
				}
			}
			bu.Flush()
		}
	})
	// Puts, not Len: with get-counts active Len is the *live* census and
	// drops to zero as tiles are garbage-collected.
	stats := gep.CnCStats{Stats: g.Stats(), BaseTasks: int(out.Puts())}
	return stats, err
}

// Residual returns max |(L·Lᵀ − A0)[i][j]| over the lower triangle, where
// l is a factored matrix and a0 the original — the end-to-end correctness
// measure.
func Residual(l, a0 *matrix.Dense) float64 {
	n := l.Rows()
	max := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := 0.0
			for k := 0; k <= j; k++ {
				sum += l.At(i, k) * l.At(j, k)
			}
			if d := math.Abs(sum - a0.At(i, j)); d > max {
				max = d
			}
		}
	}
	return max
}

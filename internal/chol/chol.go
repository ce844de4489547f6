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

// The recurrence is stated once, here: the schedule walk (Walk) and the
// dependency relation on tile tasks (Preds, Succs). The serial, fork-join
// and CnC drivers below and internal/dag's two Cholesky graphs interpret
// them.

// Walk visits the tile tasks of a tiles×tiles factorisation in the
// right-looking schedule; last marks the final task of a stage. Phase k has
// three stages — POTRF(k); the TRSM batch of column k; the UPDATE batch of
// the trailing lower triangle — and the tasks of a stage are independent.
// The walk has this one level: there are no recursive calls.
func Walk(tiles int, visit func(t Tag, last bool)) {
	for k := 0; k < tiles; k++ {
		visit(Tag{KindPotrf, k, k, k}, true)
		for i := k + 1; i < tiles; i++ {
			visit(Tag{KindTrsm, i, k, k}, i == tiles-1)
		}
		for j := k + 1; j < tiles; j++ {
			for i := j; i < tiles; i++ {
				visit(Tag{KindUpdate, i, j, k}, j == tiles-1)
			}
		}
	}
}

// Preds visits the tasks that task t must wait for, until f returns false:
// TRSM(I,K) reads POTRF(K); UPDATE(I,J,K) reads TRSM(I,K) and TRSM(J,K) —
// one task on the diagonal; and every task overwrites what the previous
// phase's UPDATE of its tile wrote.
func Preds(_ int, t Key, f func(Key) bool) bool {
	ok := true
	switch t.Kind {
	case KindTrsm:
		ok = f(Key{KindPotrf, t.K, t.K, t.K})
	case KindUpdate:
		ok = f(Key{KindTrsm, t.I, t.K, t.K}) && (t.J == t.I || f(Key{KindTrsm, t.J, t.K, t.K}))
	}
	return ok && (t.K == 0 || f(Key{KindUpdate, t.I, t.J, t.K - 1}))
}

// Succs is the inverse of Preds on a tiles×tiles grid. Their number is the
// get-count of t's receipt: T−1−K TRSMs read POTRF(K) (the last diagonal
// frees on put); TRSM(I,K) feeds the UPDATEs of row I and, below the
// diagonal, of column I — T−K−1 in all; an UPDATE feeds exactly the
// phase-K+1 task on its tile, which always exists (J ≥ K+1).
func Succs(tiles int, t Key, f func(Key) bool) bool {
	i, k := t.I, t.K
	switch t.Kind {
	case KindPotrf:
		for x := k + 1; x < tiles; x++ {
			if !f(Key{KindTrsm, x, k, k}) {
				return false
			}
		}
	case KindTrsm:
		for x := k + 1; x < tiles; x++ {
			if x <= i && !f(Key{KindUpdate, i, x, k}) || x > i && !f(Key{KindUpdate, x, i, k}) {
				return false
			}
		}
	default:
		return f(TaskKey(i, t.J, k+1))
	}
	return true
}

// TaskKey returns the task that updates tile (i, j) in phase k ≤ j ≤ i:
// POTRF on the phase's diagonal tile, TRSM in its column, UPDATE elsewhere.
func TaskKey(i, j, k int) Key {
	switch {
	case i == k:
		return Key{KindPotrf, i, j, k}
	case j == k:
		return Key{KindTrsm, i, j, k}
	default:
		return Key{KindUpdate, i, j, k}
	}
}

// driver runs tile tasks on a matrix; bs is the tile side and span brackets
// every kernel (traceFn).
type driver struct {
	a    *matrix.Dense
	bs   int
	span func() func()
}

func newDriver(a *matrix.Dense, base int, trace func() func()) (*driver, int, error) {
	if err := validate(a, base); err != nil {
		return nil, 0, err
	}
	bs := gep.BaseSize(a.Rows(), base)
	return &driver{a: a, bs: bs, span: traceFn(trace)}, a.Rows() / bs, nil
}

// run applies the kernel of task t. Only POTRF can fail.
func (d *driver) run(t Tag) (err error) {
	defer d.span()()
	switch t.Kind {
	case KindPotrf:
		err = potrf(d.a, t.K, d.bs)
	case KindTrsm:
		trsm(d.a, t.I, t.K, d.bs)
	default:
		update(d.a, t.I, t.J, t.K, d.bs)
	}
	return err
}

// TiledSerial runs the right-looking tile algorithm serially.
func TiledSerial(a *matrix.Dense, base int) error {
	d, tiles, err := newDriver(a, base, nil)
	if err != nil {
		return err
	}
	Walk(tiles, func(t Tag, _ bool) {
		if err == nil {
			err = d.run(t)
		}
	})
	return err
}

// ForkJoinContext runs the right-looking schedule on the pool with a
// taskwait after the TRSM batch and after the UPDATE batch of each phase;
// POTRF runs on the spawning goroutine. A cancelled ctx unwinds the run and
// returns ctx.Err() with a partial factor. trace, when non-nil, brackets
// every tile kernel invocation — the returned func is called when the
// kernel finishes (dpperf's traced pass reads kernel busy time through it).
func ForkJoinContext(ctx context.Context, a *matrix.Dense, base int, pool *forkjoin.Pool, trace func() func()) error {
	d, tiles, err := newDriver(a, base, trace)
	if err != nil {
		return err
	}
	var firstErr error
	err = pool.RunContext(ctx, func(c *forkjoin.Ctx) {
		var g forkjoin.Group
		Walk(tiles, func(t Tag, last bool) {
			switch {
			case firstErr != nil:
			case t.Kind == KindPotrf:
				declareRace(c, t)
				firstErr = d.run(t)
			default:
				c.SpawnCall(&g, cholCall, d, [4]int{t.Kind, t.I, t.J, t.K})
				if last {
					c.Wait(&g)
				}
			}
		})
	})
	if err != nil {
		return err
	}
	return firstErr
}

// cholCall is the closure-free spawn trampoline of the TRSM and UPDATE
// batches — the O(tiles²) and O(tiles³) spawn sites (see
// forkjoin.Ctx.SpawnCall). Neither kernel fails.
func cholCall(c *forkjoin.Ctx, recv any, a [4]int) {
	t := Tag{a[0], a[1], a[2], a[3]}
	declareRace(c, t)
	_ = recv.(*driver).run(t)
}

// declareRace reports one tile kernel's access set to the pool's race
// detector when the run is race-checked: it writes its own tile and reads
// the tiles its predecessors wrote.
func declareRace(c *forkjoin.Ctx, t Tag) {
	f := c.Race()
	if f == nil {
		return
	}
	w := determinacy.TileCell(t.I, t.J)
	f.Write(w)
	Preds(0, Key(t), func(p Key) bool {
		if cell := determinacy.TileCell(p.I, p.J); cell != w {
			f.Read(cell)
		}
		return true
	})
}

// traceFn normalises an optional trace hook into an always-callable span
// opener.
func traceFn(trace func() func()) func() func() {
	if trace == nil {
		return func() func() { return func() {} }
	}
	return trace
}

// NewCnCGraph builds the static CnC structure of the Cholesky program —
// one step collection prescribed by one tag collection, synchronised
// through one item collection of finished tile states — without running
// it (cmd/cncgraph's description and DOT renderings).
func NewCnCGraph(name string) *cnc.Graph {
	d, tiles, _ := newDriver(matrix.NewSquare(4), 1, nil)
	return d.flow(tiles).Spec(name, core.NativeCnC)
}

// RunCnCContext runs the data-flow Cholesky: one step collection with the
// dependency structure above, items at base-tile granularity, every tile
// task instantiated by the environment. A cancelled ctx drains the graph
// and returns ctx.Err(). tune, when non-nil, receives the built graph
// before the run starts (the chaos harness's fault injection and the memory
// report's WithMemoryLimit hook); trace, when non-nil, brackets every tile
// kernel invocation.
func RunCnCContext(ctx context.Context, a *matrix.Dense, base, workers int, variant core.Variant, tune func(*cnc.Graph), trace func() func()) (gep.CnCStats, error) {
	d, tiles, err := newDriver(a, base, trace)
	if err != nil {
		return gep.CnCStats{}, err
	}
	return d.flow(tiles).Run(ctx, "chol-"+variant.String(), workers, variant, tune)
}

// flow states the recurrence for the shared data-flow interpreter
// (gep.Flow). Every tag is a base task, so each admitted tag materialises
// one tile, and a task's key is its tag.
func (d *driver) flow(tiles int) *gep.Flow[Tag, Key] {
	return &gep.Flow[Tag, Key]{
		Colls:     [][3]string{{"cholTask", "tasks", "tile_outputs"}},
		Task:      func(t Tag) (Key, bool) { return Key(t), true },
		Walk:      func(_ Tag, _ bool, visit func(Tag, bool)) { Walk(tiles, visit) },
		Preds:     func(k Key, f func(Key) bool) bool { return Preds(tiles, k, f) },
		Succs:     func(k Key, f func(Key) bool) bool { return Succs(tiles, k, f) },
		Kernel:    func(k Key) error { return d.run(Tag(k)) },
		Flat:      true,
		TileBytes: d.bs * d.bs * 8,
	}
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

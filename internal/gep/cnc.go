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

// RunCnCContext is RunCnC with cooperative cancellation and the tune hook
// of Flow.Run.
func (alg Algorithm) RunCnCContext(ctx context.Context, x *matrix.Dense, base, workers int, variant core.Variant, tune func(*cnc.Graph)) (CnCStats, error) {
	if err := validate(x, base); err != nil {
		return CnCStats{}, err
	}
	return alg.flow(x, base).Run(ctx, "gep-"+variant.String(), workers, variant, tune)
}

// NewCnCGraph builds the CnC program's static structure — the four step,
// tag and item collections and their prescribe/produce/consume
// relationships of Listing 4 — without running it, for description and
// visualisation (cmd/cncgraph).
func (alg Algorithm) NewCnCGraph(name string, variant core.Variant) *cnc.Graph {
	return alg.flow(matrix.NewSquare(4), 1).Spec(name, variant)
}

// flow states the recurrence for the data-flow interpreter: the GEContext
// of Listing 4. Tags are calls of the 2-way walk; a call of base-tile side
// is a base task, and its block coordinates are its item key.
func (alg Algorithm) flow(x *matrix.Dense, base int) *Flow[Tag, ItemKey] {
	n := x.Rows()
	bs := BaseSize(n, base)
	tiles := n / bs
	f := &Flow[Tag, ItemKey]{
		Coll: func(k ItemKey) int { return int(Classify(k.I, k.J, k.K)) },
		Task: func(t Tag) (ItemKey, bool) { return ItemKey{t.I, t.J, t.K}, t.S == bs },
		Walk: func(t Tag, flat bool, visit func(Tag, bool)) {
			r := 2
			if flat {
				r = t.S / bs
			}
			alg.Shape.Walk(t, r, visit)
		},
		Preds: func(k ItemKey, f func(ItemKey) bool) bool { return alg.Shape.Preds(tiles, k, f) },
		Succs: func(k ItemKey, f func(ItemKey) bool) bool { return alg.Shape.Succs(tiles, k, f) },
		Kernel: func(k ItemKey) error {
			alg.Kernel(x, k.I*bs, k.J*bs, k.K*bs, bs)
			return nil
		},
		Root:      Tag{S: n},
		TileBytes: bs * bs * 8,
	}
	for fn := FuncA; fn <= FuncD; fn++ {
		f.Colls = append(f.Colls, [3]string{fn.String(), fn.String() + "_tags", fn.String() + "_outputs"})
	}
	return f
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

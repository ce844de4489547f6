package gep

import (
	"fmt"

	"dpflow/internal/cnc"
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

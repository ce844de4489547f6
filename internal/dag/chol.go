package dag

import (
	"fmt"
	"math"
	"sort"

	"dpflow/internal/chol"
)

// CholDataflow is the analytic data-flow graph of tiled Cholesky at tile
// granularity (see internal/chol): one task per (i, j, k) with
// 0 ≤ k ≤ j ≤ i < T, where (k,k,k) is POTRF of the phase-k diagonal tile,
// (i,k,k) with i > k is the TRSM of tile (i,k), and (i,j,k) with j > k is
// the trailing UPDATE of tile (i,j). Its edges are the dependency relation
// the CnC item collection enforces (chol.Preds and Succs); this type adds
// only the index space. POTRF maps to KindA, TRSM to KindC (a pivot-column
// solve) and UPDATE to KindD, so the analytical model prices the kernels
// with the GE-family formulas.
type CholDataflow struct {
	T int
	// offsets[k] is the id of the first task of phase k; phase k holds the
	// lower triangle {(i,j): k ≤ j ≤ i < T} of s(s+1)/2 tasks, s = T−k.
	offsets []int
	n       int
}

// NewCholDataflow builds the graph for a tiles×tiles tile grid.
func NewCholDataflow(tiles int) *CholDataflow {
	if tiles < 1 {
		panic(fmt.Sprintf("dag: tiles = %d", tiles))
	}
	g := &CholDataflow{T: tiles, offsets: make([]int, tiles+1)}
	for k := 0; k < tiles; k++ {
		s := tiles - k
		g.offsets[k+1] = g.offsets[k] + s*(s+1)/2
	}
	g.n = g.offsets[tiles]
	return g
}

// Len implements Graph. The total is the tetrahedral number T(T+1)(T+2)/6.
func (g *CholDataflow) Len() int { return g.n }

// ID returns the task id of (i, j, k). It panics outside the task space.
func (g *CholDataflow) ID(i, j, k int) int {
	if k < 0 || k > j || j > i || i >= g.T {
		panic(fmt.Sprintf("dag: (%d,%d,%d) outside the Cholesky task space (T=%d)", i, j, k, g.T))
	}
	a, b := i-k, j-k
	return g.offsets[k] + a*(a+1)/2 + b
}

// Coords decodes a task id to (i, j, k).
func (g *CholDataflow) Coords(id int) (i, j, k int) {
	k = sort.Search(g.T, func(p int) bool { return g.offsets[p+1] > id })
	rem := id - g.offsets[k]
	// Largest a with a(a+1)/2 <= rem; the float guess is fixed up exactly.
	a := int((math.Sqrt(float64(8*rem+1)) - 1) / 2)
	for a*(a+1)/2 > rem {
		a--
	}
	for (a+1)*(a+2)/2 <= rem {
		a++
	}
	return k + a, k + rem - a*(a+1)/2, k
}

// cholKinds maps chol's task kinds to the model's.
var cholKinds = [...]Kind{chol.KindPotrf: KindA, chol.KindTrsm: KindC, chol.KindUpdate: KindD}

func (g *CholDataflow) key(id int) chol.Key { return chol.TaskKey(g.Coords(id)) }

// Kind implements Graph.
func (g *CholDataflow) Kind(id int) Kind { return cholKinds[g.key(id).Kind] }

// InDeg implements Graph.
func (g *CholDataflow) InDeg(id int) int {
	d := 0
	chol.Preds(g.T, g.key(id), func(chol.Key) bool { d++; return true })
	return d
}

// EachSucc implements Graph.
func (g *CholDataflow) EachSucc(id int, f func(int)) {
	chol.Succs(g.T, g.key(id), func(s chol.Key) bool { f(g.ID(s.I, s.J, s.K)); return true })
}

// NewCholForkJoin materialises the ordering DAG of the fork-join Cholesky
// by running chol.Walk symbolically: a join node after every kernel batch of
// a phase that holds more than one task. POTRF — and the one TRSM and the
// one UPDATE of the penultimate phase — run on the spawning goroutine, so
// they chain sequentially between the joins.
func NewCholForkJoin(tiles int) *CSR {
	if tiles < 1 {
		panic(fmt.Sprintf("dag: tiles = %d", tiles))
	}
	// The walk has one level: the root is a call of no kind whose sub-calls
	// are every tile task.
	return forkJoin(chol.Tag{Kind: -1},
		func(t chol.Tag) (Kind, bool) {
			if t.Kind < 0 {
				return 0, false
			}
			return cholKinds[t.Kind], true
		},
		func(_ chol.Tag, visit func(chol.Tag, bool)) { chol.Walk(tiles, visit) })
}

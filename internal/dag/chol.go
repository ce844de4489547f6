package dag

import (
	"fmt"
	"math"
	"sort"
)

// CholDataflow is the analytic data-flow graph of tiled Cholesky at tile
// granularity (see internal/chol): one task per (i, j, k) with
// 0 ≤ k ≤ j ≤ i < T, where (k,k,k) is POTRF of the phase-k diagonal tile,
// (i,k,k) with i > k is the TRSM of tile (i,k), and (i,j,k) with j > k is
// the trailing UPDATE of tile (i,j). The dependencies are exactly what the
// CnC item collection enforces:
//
//	POTRF(k)      ← UPDATE(k,k,k−1)
//	TRSM(i,k)     ← POTRF(k), UPDATE(i,k,k−1)
//	UPDATE(i,j,k) ← TRSM(i,k), TRSM(j,k), UPDATE(i,j,k−1)
//
// with the TRSM dependency counted once on the diagonal (i == j). POTRF
// maps to KindA, TRSM to KindC (a pivot-column solve) and UPDATE to KindD,
// so the analytical model prices the kernels with the GE-family formulas.
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

// Kind implements Graph.
func (g *CholDataflow) Kind(id int) Kind {
	i, j, k := g.Coords(id)
	switch {
	case i == k: // i == j == k
		return KindA
	case j == k:
		return KindC
	default:
		return KindD
	}
}

// InDeg implements Graph.
func (g *CholDataflow) InDeg(id int) int {
	i, j, k := g.Coords(id)
	prev := 0
	if k > 0 {
		prev = 1 // UPDATE(i,j,k−1), the write-write dependency on the tile
	}
	switch {
	case i == k:
		return prev
	case j == k:
		return 1 + prev // POTRF(k)
	case i == j:
		return 1 + prev // TRSM(i,k), counted once on the diagonal
	default:
		return 2 + prev // TRSM(i,k) and TRSM(j,k)
	}
}

// EachSucc implements Graph.
func (g *CholDataflow) EachSucc(id int, f func(int)) {
	i, j, k := g.Coords(id)
	t := g.T
	switch {
	case i == k: // POTRF(k) feeds every TRSM of its phase
		for x := k + 1; x < t; x++ {
			f(g.ID(x, k, k))
		}
	case j == k: // TRSM(i,k) feeds the UPDATEs of row i and column i
		for x := k + 1; x <= i; x++ {
			f(g.ID(i, x, k))
		}
		for x := i + 1; x < t; x++ {
			f(g.ID(x, i, k))
		}
	default: // UPDATE(i,j,k) feeds the phase-k+1 task on the same tile
		f(g.ID(i, j, k+1)) // exists: j ≥ k+1 in the UPDATE space
	}
}

// EachPred calls f for every predecessor (used by tests and span checks).
func (g *CholDataflow) EachPred(id int, f func(int)) {
	i, j, k := g.Coords(id)
	switch {
	case i == k:
	case j == k:
		f(g.ID(k, k, k))
	default:
		f(g.ID(i, k, k))
		if j != i {
			f(g.ID(j, k, k))
		}
	}
	if k > 0 {
		f(g.ID(i, j, k-1))
	}
}

// NewCholForkJoin materialises the ordering DAG of the fork-join Cholesky
// (chol.ForkJoinContext): the right-looking schedule with a taskwait after the
// TRSM batch and after the UPDATE batch of each phase. POTRF runs on the
// spawning goroutine, so it chains sequentially between the joins.
func NewCholForkJoin(tiles int) *CSR {
	if tiles < 1 {
		panic(fmt.Sprintf("dag: tiles = %d", tiles))
	}
	b := &builder{}
	cur := int32(-1)
	for k := 0; k < tiles; k++ {
		p := b.node(KindA)
		b.edge(cur, p)
		cur = p
		if k+1 >= tiles {
			continue // last phase: lone POTRF, no batches
		}
		var sinks []int32
		for i := k + 1; i < tiles; i++ {
			t := b.node(KindC)
			b.edge(cur, t)
			sinks = append(sinks, t)
		}
		cur = b.joinAll(sinks)
		sinks = sinks[:0]
		for j := k + 1; j < tiles; j++ {
			for i := j; i < tiles; i++ {
				t := b.node(KindD)
				b.edge(cur, t)
				sinks = append(sinks, t)
			}
		}
		cur = b.joinAll(sinks)
	}
	return b.freeze()
}

// joinAll emits a zero-cost join node after every sink of a parallel batch.
func (b *builder) joinAll(sinks []int32) int32 {
	j := b.node(KindJoin)
	for _, s := range sinks {
		b.edge(s, j)
	}
	return j
}

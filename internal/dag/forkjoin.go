package dag

import (
	"fmt"

	"dpflow/internal/gep"
	"dpflow/internal/sw"
)

// forkJoin materialises the ordering DAG of a recurrence's fork-join
// execution by running its schedule walk symbolically from the root call:
// a base call becomes a task node after its predecessor; the calls of a
// stage all start after the same node, and a zero-cost join node after
// every one of them guards the next stage; a stage of one call chains
// directly, as gep.Flow.ForkJoin runs it on the caller. So the graph
// contains precisely the constraints Spawn/Wait imposes, artificial
// dependencies included. leaf reports whether a call is a base task and of which kind;
// walk visits a call's sub-calls in schedule order, last ending a stage.
//
// Nodes are numbered in the order the serial recursion would reach them,
// each join after its stage — internal/simsched breaks ties by id.
func forkJoin[C any](root C, leaf func(C) (Kind, bool), walk func(c C, visit func(sub C, last bool))) *CSR {
	b := &builder{}
	// stages is a stack of the open stages' task nodes, innermost call last.
	var stages []int32
	var call func(pred int32, c C) int32
	call = func(pred int32, c C) int32 {
		if k, ok := leaf(c); ok {
			n := b.node(k)
			b.edge(pred, n)
			return n
		}
		cur, open := pred, len(stages)
		walk(c, func(sub C, last bool) {
			n := call(cur, sub)
			stages = append(stages, n)
			if !last {
				return
			}
			cur = n
			if stage := stages[open:]; len(stage) > 1 {
				cur = b.join(stage)
			}
			stages = stages[:open]
		})
		return cur
	}
	call(-1, root)
	return b.freeze()
}

// NewGEPForkJoin materialises the ordering DAG of the fork-join R-DP
// execution (Listing 3) for a tiles×tiles grid; tiles must be a power of
// two (the recursion halves until single tiles).
func NewGEPForkJoin(tiles int, shape gep.Shape) *CSR { return NewGEPForkJoinR(tiles, 2, shape) }

// NewGEPForkJoinR materialises the ordering DAG of the r-way fork-join
// R-DP execution for a tiles×tiles grid; the runtime runs r = 2, and r is a
// parameter of the walk only. tiles must be a power of r. With r == tiles the recursion flattens into
// one level of phase-parallel batches — the closest a fork-join program
// gets to the data-flow schedule — so sweeping r quantifies how much of
// the artificial-dependency span the parametric r-way algorithms of the
// paper's references [15, 16] recover.
func NewGEPForkJoinR(tiles, r int, shape gep.Shape) *CSR {
	if tiles < 1 || r < 2 {
		panic(fmt.Sprintf("dag: fork-join needs tiles >= 1 and an r-way split with r >= 2, got tiles=%d r=%d", tiles, r))
	}
	for s := tiles; s > 1; s /= r {
		if s%r != 0 {
			panic(fmt.Sprintf("dag: tiles=%d is not a power of r=%d", tiles, r))
		}
	}
	return forkJoin(gep.Tag{S: tiles},
		func(t gep.Tag) (Kind, bool) { return kindOf(gep.Classify(t.I, t.J, t.K)), t.S == 1 },
		func(t gep.Tag, visit func(gep.Tag, bool)) { shape.Walk(t, r, visit) })
}

// NewSWForkJoin materialises the fork-join ordering DAG of the R-DP
// Smith-Waterman recursion R(X) = R(X00); R(X01) ∥ R(X10); R(X11) for a
// tiles×tiles grid (power of two).
func NewSWForkJoin(tiles int) *CSR {
	if tiles < 1 || tiles&(tiles-1) != 0 {
		panic(fmt.Sprintf("dag: fork-join tiles = %d must be a power of two", tiles))
	}
	return forkJoin(sw.TileTag{S: tiles},
		func(t sw.TileTag) (Kind, bool) { return KindSW, t.S == 1 },
		func(t sw.TileTag, visit func(sw.TileTag, bool)) { sw.Walk(t, 2, visit) })
}

// NewSWWavefrontBarrier materialises the barrier-per-anti-diagonal SW
// schedule (the paper's footnote 6): all tiles of diagonal d run in
// parallel, then a join, then diagonal d+1. Span-optimal (2T−1 stages) yet
// stiffer than the data-flow graph: the join makes every tile of a
// diagonal wait for all of the previous one.
func NewSWWavefrontBarrier(tiles int) *CSR {
	if tiles < 1 {
		panic(fmt.Sprintf("dag: tiles = %d", tiles))
	}
	b := &builder{}
	prev := int32(-1)
	for d := 0; d < 2*tiles-1; d++ {
		lo := 0
		if d >= tiles {
			lo = d - tiles + 1
		}
		hi := d
		if hi >= tiles {
			hi = tiles - 1
		}
		join := b.node(KindJoin)
		for i := lo; i <= hi; i++ {
			t := b.node(KindSW)
			b.edge(prev, t)
			b.edge(t, join)
		}
		prev = join
	}
	return b.freeze()
}

package dag

import "fmt"

// ForkJoin materialises the ordering DAG of a recurrence's fork-join
// execution by running its schedule walk symbolically, as gep.Flow's
// interpreters run it: from root — with flat set, from root's flat walk —
// a base call becomes a task node after its predecessor; the calls of a
// stage all start after the same node, and a zero-cost join node after
// every one of them guards the next stage; a stage of one call chains
// directly, as gep.Flow.ForkJoin runs it on the caller. So the graph
// contains precisely the constraints Spawn/Wait imposes, artificial
// dependencies included. leaf reports whether a call is a base task and of
// which kind; walk visits a call's sub-calls in schedule order (with flat
// set, the base tasks under it), last ending a stage.
//
// Nodes are numbered in the order the serial recursion would reach them,
// each join after its stage — internal/simsched breaks ties by id.
func ForkJoin[C any](root C, flat bool, leaf func(C) (Kind, bool), walk func(c C, flat bool, visit func(sub C, last bool))) *CSR {
	b := &builder{}
	// stages is a stack of the open stages' task nodes, innermost call last.
	var stages []int32
	var call func(pred int32, c C, flat bool) int32
	call = func(pred int32, c C, flat bool) int32 {
		if k, ok := leaf(c); ok && !flat {
			n := b.node(k)
			b.edge(pred, n)
			return n
		}
		cur, open := pred, len(stages)
		walk(c, flat, func(sub C, last bool) {
			n := call(cur, sub, false)
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
	call(-1, root, flat)
	return b.freeze()
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

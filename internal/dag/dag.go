// Package dag builds the task graphs that the two execution models induce
// over the same set of base-case tile tasks, at tile granularity:
//
//   - The data-flow graph (Dataflow) contains exactly the true dependencies
//     of the DP recurrence (what the CnC item collections enforce). It is
//     analytic — a task's predecessors and successors are computed from its
//     key by the recurrence's dependency relation, through a dense
//     numbering of its task space — so graphs with millions of tasks cost a
//     few bytes per task.
//   - The fork-join graph (ForkJoin) contains the ordering that Spawn/Wait
//     imposes: the same base tasks plus zero-cost join nodes, with an edge
//     from every task of a stage to the join that guards the next stage. It
//     is materialised in CSR form by running the recurrence's schedule walk
//     symbolically.
//
// The package knows no benchmark: each registry entry in internal/bench
// hands it its own numbering, walk and relation. Comparing the two graphs'
// spans quantifies the paper's central claim: joins add artificial
// dependencies that grow the span asymptotically.
package dag

import (
	"fmt"
	"sync"
)

// Kind classifies a task node.
type Kind uint8

// Task kinds. KindA..KindD are the GEP functions, KindSW is a
// Smith-Waterman tile, KindJoin is a zero-cost fork-join synchronisation
// node.
const (
	KindA Kind = iota
	KindB
	KindC
	KindD
	KindSW
	KindJoin
	NumKinds = int(KindJoin) + 1
)

// String names the kind.
func (k Kind) String() string {
	return [...]string{"A", "B", "C", "D", "SW", "join"}[k]
}

// Graph is a task DAG. Implementations must be immutable after
// construction so they can be shared across simulations.
type Graph interface {
	// Len returns the number of nodes; ids are 0..Len()-1.
	Len() int
	// Kind returns the node's task kind.
	Kind(id int) Kind
	// InDeg returns the number of predecessors of the node.
	InDeg(id int) int
	// EachSucc calls f for every successor of id.
	EachSucc(id int, f func(succ int))
}

// Dataflow is the analytic data-flow graph of a recurrence at tile
// granularity: one node per base task, its edges the recurrence's
// dependency relation. It materialises nothing — every method maps a node
// id to its key and asks the relation — so it costs what its numbering
// costs. Node ids are the numbering's, and successors come in the
// relation's order; internal/simsched breaks ties by both.
type Dataflow[K comparable] struct {
	n            int
	id           func(K) int
	key          func(int) K
	kind         func(K) Kind
	preds, succs func(K, func(K) bool) bool
	// visits pools the *visit[K] through which InDeg and EachSucc call the
	// relation, so neither builds a closure per call.
	visits sync.Pool
}

// visit counts a task's predecessors or hands its successors' ids on.
type visit[K any] struct {
	n           int
	f           func(int)
	count, succ func(K) bool
}

// NewDataflow returns the data-flow graph over a task space of n tasks:
// id numbers them densely, 0..n−1, and key is its inverse (id need not
// refuse a key outside the space; ID does). kind classifies a task, and
// preds and succs are the dependency relation on tasks (as gep.Flow states
// it): they visit a task's predecessors or successors until f returns
// false.
func NewDataflow[K comparable](n int, id func(K) int, key func(int) K, kind func(K) Kind, preds, succs func(k K, f func(K) bool) bool) *Dataflow[K] {
	g := &Dataflow[K]{n: n, id: id, key: key, kind: kind, preds: preds, succs: succs}
	g.visits.New = func() any {
		v := &visit[K]{}
		v.count = func(K) bool { v.n++; return true }
		v.succ = func(s K) bool { v.f(id(s)); return true }
		return v
	}
	return g
}

// ID returns the node of task k. It panics when k is outside the task
// space: when the numbering does not name k back.
func (g *Dataflow[K]) ID(k K) int {
	if id := g.id(k); 0 <= id && id < g.n && g.key(id) == k {
		return id
	}
	panic(fmt.Sprintf("dag: %v is outside the task space", k))
}

// Key returns the task of node id.
func (g *Dataflow[K]) Key(id int) K { return g.key(id) }

// Len implements Graph.
func (g *Dataflow[K]) Len() int { return g.n }

// Kind implements Graph.
func (g *Dataflow[K]) Kind(id int) Kind { return g.kind(g.key(id)) }

// InDeg implements Graph.
func (g *Dataflow[K]) InDeg(id int) int {
	v := g.visits.Get().(*visit[K])
	v.n = 0
	g.preds(g.key(id), v.count)
	d := v.n
	g.visits.Put(v)
	return d
}

// EachSucc implements Graph.
func (g *Dataflow[K]) EachSucc(id int, f func(int)) {
	v := g.visits.Get().(*visit[K])
	v.f = f
	g.succs(g.key(id), v.succ)
	v.f = nil
	g.visits.Put(v)
}

// Stats summarises a graph.
type Stats struct {
	Nodes     int
	Tasks     int // non-join nodes
	Edges     int
	ByKind    [NumKinds]int
	SourceCnt int // nodes with no predecessors
}

// Analyze walks a graph and returns its statistics.
func Analyze(g Graph) Stats {
	var s Stats
	s.Nodes = g.Len()
	for id := 0; id < g.Len(); id++ {
		k := g.Kind(id)
		s.ByKind[k]++
		if k != KindJoin {
			s.Tasks++
		}
		if g.InDeg(id) == 0 {
			s.SourceCnt++
		}
		g.EachSucc(id, func(int) { s.Edges++ })
	}
	return s
}

// CheckAcyclic runs Kahn's algorithm and returns an error if the graph has
// a cycle or inconsistent in-degrees (a node never becoming ready).
func CheckAcyclic(g Graph) error {
	n := g.Len()
	indeg := make([]int32, n)
	for i := 0; i < n; i++ {
		indeg[i] = int32(g.InDeg(i))
	}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		g.EachSucc(int(id), func(s int) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, int32(s))
			}
			if indeg[s] < 0 {
				panic(fmt.Sprintf("dag: in-degree of %d went negative (declared %d)", s, g.InDeg(s)))
			}
		})
	}
	if seen != n {
		return fmt.Errorf("dag: only %d of %d nodes reachable from sources — cycle or wrong InDeg", seen, n)
	}
	return nil
}

// CSR is an explicit graph in compressed sparse row form, built by
// ForkJoin and NewSWWavefrontBarrier.
type CSR struct {
	kinds   []Kind
	indeg   []int32
	succOff []int32
	succs   []int32
}

// Len implements Graph.
func (c *CSR) Len() int { return len(c.kinds) }

// Kind implements Graph.
func (c *CSR) Kind(id int) Kind { return c.kinds[id] }

// InDeg implements Graph.
func (c *CSR) InDeg(id int) int { return int(c.indeg[id]) }

// EachSucc implements Graph.
func (c *CSR) EachSucc(id int, f func(int)) {
	for _, s := range c.succs[c.succOff[id]:c.succOff[id+1]] {
		f(int(s))
	}
}

// builder accumulates nodes and edges, then freezes into a CSR.
type builder struct {
	kinds []Kind
	from  []int32
	to    []int32
}

func (b *builder) node(k Kind) int32 {
	b.kinds = append(b.kinds, k)
	return int32(len(b.kinds) - 1)
}

func (b *builder) edge(from, to int32) {
	if from < 0 {
		return // root call has no predecessor
	}
	b.from = append(b.from, from)
	b.to = append(b.to, to)
}

// join emits a zero-cost join node after every task of a stage.
func (b *builder) join(stage []int32) int32 {
	j := b.node(KindJoin)
	for _, s := range stage {
		b.edge(s, j)
	}
	return j
}

func (b *builder) freeze() *CSR {
	n := len(b.kinds)
	c := &CSR{
		kinds:   b.kinds,
		indeg:   make([]int32, n),
		succOff: make([]int32, n+1),
		succs:   make([]int32, len(b.from)),
	}
	for i := range b.from {
		c.succOff[b.from[i]+1]++
		c.indeg[b.to[i]]++
	}
	for i := 0; i < n; i++ {
		c.succOff[i+1] += c.succOff[i]
	}
	fill := make([]int32, n)
	for i := range b.from {
		f := b.from[i]
		c.succs[c.succOff[f]+fill[f]] = b.to[i]
		fill[f]++
	}
	b.from, b.to = nil, nil
	return c
}

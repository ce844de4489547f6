package bench

import (
	"fmt"
	"math/rand"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/matrix"
)

// entry is every registered benchmark: what one benchmark states as data,
// over which the Benchmark methods are written once.
type entry[T, K comparable] struct {
	taskGraphs[T, K]
	// closedForms are the paper's per-base-task closed forms (Flops,
	// MaxMissBound, StreamLines).
	closedForms
	name string
	// problem draws the inputs of an n×n problem from rng: the table the
	// recurrence runs on, an equal one for the serial reference, and the
	// Flow constructor stating it on a table.
	problem func(n int, rng *rand.Rand) (work, ref *matrix.Dense, flow func(x *matrix.Dense, base int) (*gep.Flow[T, K], error))
	// census is the closed-form base-task count of a tiles×tiles problem by
	// kind (joins excluded) — a formula, not a walk over the tasks: the
	// model asks it at every figure point.
	census func(tiles int) [dag.NumKinds]int
	// deps is DepCount by kind: the pre-declared dependencies of a base
	// task of that kind.
	deps [dag.NumKinds]float64
	// prefetch: the fork-join schedule's depth-first locality earns the
	// hardware prefetch discount.
	prefetch bool
}

func (e *entry[T, K]) Name() string { return e.name }

// NewInstance draws the inputs from seed, runs the serial reference on its
// table and returns the instance over the working one.
func (e *entry[T, K]) NewInstance(n, base int, seed int64) (Instance, error) {
	work, ref, flow := e.problem(n, rand.New(rand.NewSource(seed)))
	f, err := flow(ref, base)
	if err == nil {
		err = f.Serial()
	}
	if err == nil {
		f, err = flow(work, base)
	}
	if err != nil {
		return nil, err
	}
	return &instance[T, K]{name: e.name, flow: f, work: work, ref: ref, owned: true}, nil
}

func (e *entry[T, K]) KindCounts(tiles int) [dag.NumKinds]int { return e.census(tiles) }

// TotalTasks is the census summed over the kinds.
func (e *entry[T, K]) TotalTasks(tiles int) int {
	total := 0
	for _, n := range e.census(tiles) {
		total += n
	}
	return total
}

func (e *entry[T, K]) DepCount(kind dag.Kind) float64 { return e.deps[kind] }

func (e *entry[T, K]) PrefetchFriendly() bool { return e.prefetch }

// SpecGraph is the static CnC specification graph of the entry's Flow on
// 4 tiles.
func (e *entry[T, K]) SpecGraph() *cnc.Graph {
	f, _ := e.flow(4)
	return f.Spec(e.name, core.NativeCnC)
}

// Wire reads the vocabulary off the Flow of tiles one-cell tiles: the zero
// tag, the root tag, the flat walk's first and last base tags, and the first
// and last key the walk reaches of every item collection it fills — false
// and true, the two item values.
func (e *entry[T, K]) Wire(tiles int) WireVocab {
	f, err := e.flow(tiles)
	if err != nil {
		panic(fmt.Sprintf("bench: no wire vocabulary of %d tiles: %v", tiles, err))
	}
	var zero, first, last T
	firstKey := make([]K, len(f.Colls))
	lastKey := make([]K, len(f.Colls))
	filled := make([]bool, len(f.Colls))
	walked := false
	f.Walk(f.Root, true, func(t T, _ bool) {
		if !walked {
			first, walked = t, true
		}
		last = t
		k, _ := f.Task(t)
		c := 0
		if f.Coll != nil {
			c = f.Coll(k)
		}
		if !filled[c] {
			firstKey[c], filled[c] = k, true
		}
		lastKey[c] = k
	})
	w := WireVocab{Tags: []any{zero, f.Root, first, last}}
	for c, names := range f.Colls {
		if filled[c] {
			w.Items = append(w.Items,
				WireItem{Coll: names[2], Key: firstKey[c], Val: false},
				WireItem{Coll: names[2], Key: lastKey[c], Val: true})
		}
	}
	return w
}

// taskGraphs is a registry entry's two task graphs, filled in from its
// package's numbering, kinds, relation and Flow.
type taskGraphs[T, K comparable] struct {
	// numbering is the package's numbering of the base tasks of a
	// tiles×tiles problem, the one its Flow carries.
	numbering func(tiles int) gep.Numbering[K]
	// kind classifies a base task for the model.
	kind func(K) dag.Kind
	// preds and succs are the package's dependency relation.
	preds, succs func(tiles int, k K, f func(K) bool) bool
	// flow states the recurrence on a tiles×tiles table of one-cell tiles.
	flow func(tiles int) (*gep.Flow[T, K], error)
}

// Dataflow is the analytic data-flow graph of the entry's relation over its
// numbering.
func (g taskGraphs[T, K]) Dataflow(tiles int) dag.Graph {
	if tiles < 1 {
		panic(fmt.Sprintf("bench: tiles = %d", tiles))
	}
	nb := g.numbering(tiles)
	return dag.NewDataflow(nb.N, nb.ID, nb.Key, g.kind,
		func(k K, f func(K) bool) bool { return g.preds(tiles, k, f) },
		func(k K, f func(K) bool) bool { return g.succs(tiles, k, f) })
}

// ForkJoin is the ordering DAG of the walk the entry's Flow interprets —
// from its Root, Flat and all — so it is defined where the Flow is: tiles
// a power of two.
func (g taskGraphs[T, K]) ForkJoin(tiles int) dag.Graph {
	f, err := g.flow(tiles)
	if err != nil {
		panic(fmt.Sprintf("bench: no fork-join graph of %d tiles: %v", tiles, err))
	}
	leaf := func(t T) (dag.Kind, bool) {
		k, base := f.Task(t)
		return g.kind(k), base
	}
	return dag.ForkJoin(f.Root, f.Flat, leaf, f.Walk)
}

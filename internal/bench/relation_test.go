package bench

import (
	"fmt"
	"testing"

	"dpflow/internal/chol"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/par"
	"dpflow/internal/sw"
)

// recurrence is one row of TestRelations: a package's two statements of its
// recurrence — the flat schedule walk as a task enumeration, and the
// dependency relation — plus, for registered benchmarks, the simulator's
// view of the same tasks.
type recurrence[K comparable] struct {
	name         string
	tasks        func(tiles int, visit func(K))
	preds, succs func(tiles int, k K, f func(K) bool) bool
	// bench is the registry name ("" for par, which is not registered), and
	// interior lists, for 8 tiles, tasks with k > 0 away from every border
	// and from the previous phase's pivot — one per kind.
	bench    string
	interior []K
}

// explicit is a relation over enumerated tasks as a dag.Graph, so the
// generic graph checks apply to it.
type explicit struct{ succs [][]int }

func (g explicit) Len() int          { return len(g.succs) }
func (g explicit) Kind(int) dag.Kind { return dag.KindD }
func (g explicit) InDeg(id int) (d int) {
	for _, ss := range g.succs {
		for _, s := range ss {
			if s == id {
				d++
			}
		}
	}
	return d
}
func (g explicit) EachSucc(id int, f func(int)) {
	for _, s := range g.succs[id] {
		f(s)
	}
}

// checkRelation holds one recurrence at one size to the contract every
// interpreter relies on.
func checkRelation[K comparable](t *testing.T, r recurrence[K], tiles int) {
	index := map[K]int{}
	var tasks []K
	r.tasks(tiles, func(k K) {
		if _, dup := index[k]; dup {
			t.Fatalf("the walk visits %v twice", k)
		}
		index[k] = len(tasks)
		tasks = append(tasks, k)
	})
	collect := func(rel func(int, K, func(K) bool) bool, k K) []K {
		var out []K
		if !rel(tiles, k, func(x K) bool { out = append(out, x); return true }) {
			t.Fatalf("relation of %v stopped although the visitor never refused", k)
		}
		return out
	}
	has := func(ks []K, k K) (n int) {
		for _, x := range ks {
			if x == k {
				n++
			}
		}
		return n
	}

	// preds and succs are mutually inverse, stay inside the task space and
	// list nothing twice; a visitor's refusal stops the enumeration.
	g := explicit{succs: make([][]int, len(tasks))}
	edges := 0
	for _, k := range tasks {
		ps, ss := collect(r.preds, k), collect(r.succs, k)
		for _, p := range ps {
			if _, ok := index[p]; !ok || has(ps, p) != 1 || has(collect(r.succs, p), k) != 1 {
				t.Fatalf("%v is a predecessor of %v, which is not its successor exactly once", p, k)
			}
		}
		for _, s := range ss {
			if _, ok := index[s]; !ok || has(ss, s) != 1 || has(collect(r.preds, s), k) != 1 {
				t.Fatalf("%v is a successor of %v, which is not its predecessor exactly once", s, k)
			}
			g.succs[index[k]] = append(g.succs[index[k]], index[s])
		}
		edges += len(ss) // the get-count of k's output item
		if len(ps) > 1 {
			calls := 0
			if r.preds(tiles, k, func(K) bool { calls++; return false }) || calls != 1 {
				t.Fatalf("preds of %v ignored the visitor's refusal (%d calls)", k, calls)
			}
		}
	}
	if err := dag.CheckAcyclic(g); err != nil {
		t.Fatal(err)
	}
	if r.bench == "" {
		return
	}

	// The simulator's graph is the same relation over the same tasks.
	b, err := ByName(r.bench)
	if err != nil {
		t.Fatal(err)
	}
	df := b.Dataflow(tiles).(*dag.Dataflow[K])
	if df.Len() != len(tasks) || b.TotalTasks(tiles) != len(tasks) {
		t.Fatalf("the walk visits %d tasks, Dataflow has %d, TotalTasks says %d", len(tasks), df.Len(), b.TotalTasks(tiles))
	}
	if err := dag.CheckAcyclic(df); err != nil {
		t.Fatal(err)
	}
	if got := dag.Analyze(df).Edges; got != edges {
		t.Fatalf("Dataflow has %d edges, the get-counts sum to %d", got, edges)
	}
	for _, k := range tasks {
		id := df.ID(k)
		if got, want := df.InDeg(id), len(collect(r.preds, k)); got != want {
			t.Fatalf("InDeg of %v = %d, it has %d predecessors", k, got, want)
		}
		var got, want []int
		df.EachSucc(id, func(s int) { got = append(got, s) })
		for _, s := range collect(r.succs, k) {
			want = append(want, df.ID(s))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("EachSucc of %v = %v, its successors are %v", k, got, want)
		}
	}
	// DepCount, the model's constant, is the in-degree of an interior task.
	for _, k := range r.interior {
		if tiles != 8 {
			break
		}
		kind := df.Kind(df.ID(k))
		if got, want := b.DepCount(kind), len(collect(r.preds, k)); got != float64(want) {
			t.Fatalf("DepCount(%v) = %v, interior task %v has %d predecessors", kind, got, k, want)
		}
	}
}

func gepRecurrence(name string, sh gep.Shape) recurrence[gep.ItemKey] {
	return recurrence[gep.ItemKey]{
		name: name,
		tasks: func(tiles int, visit func(gep.ItemKey)) {
			sh.Walk(gep.Tag{S: tiles}, tiles, func(t gep.Tag, _ bool) { visit(gep.ItemKey{I: t.I, J: t.J, K: t.K}) })
		},
		preds:    sh.Preds,
		succs:    sh.Succs,
		bench:    name,
		interior: []gep.ItemKey{{I: 5, J: 5, K: 5}, {I: 5, J: 7, K: 5}, {I: 7, J: 5, K: 5}, {I: 7, J: 6, K: 5}},
	}
}

// TestRelations is the one test of where the recurrences are stated: the
// four packages × both GEP shapes, from the degenerate single tile to 8
// tiles per side (3 is not a power of two: the relation and the flat walk do
// not care).
func TestRelations(t *testing.T) {
	run := func(name string, check func(t *testing.T, tiles int)) {
		for _, tiles := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/%d", name, tiles), func(t *testing.T) { check(t, tiles) })
		}
	}
	for _, r := range []recurrence[gep.ItemKey]{gepRecurrence("ge", gep.Triangular), gepRecurrence("fw", gep.Cube)} {
		run(r.name, func(t *testing.T, tiles int) { checkRelation(t, r, tiles) })
	}
	run("sw", func(t *testing.T, tiles int) {
		checkRelation(t, recurrence[sw.TileKey]{
			tasks: func(tiles int, visit func(sw.TileKey)) {
				sw.Walk(sw.TileTag{S: tiles}, tiles, func(t sw.TileTag, _ bool) { visit(sw.TileKey{I: t.I, J: t.J}) })
			},
			preds:    sw.Preds,
			succs:    sw.Succs,
			bench:    "sw",
			interior: []sw.TileKey{{I: 3, J: 3}},
		}, tiles)
	})
	run("chol", func(t *testing.T, tiles int) {
		checkRelation(t, recurrence[chol.Key]{
			tasks: func(tiles int, visit func(chol.Key)) {
				chol.Walk(tiles, func(t chol.Tag, _ bool) { visit(chol.Key(t)) })
			},
			preds:    chol.Preds,
			succs:    chol.Succs,
			bench:    "chol",
			interior: []chol.Key{chol.TaskKey(5, 5, 5), chol.TaskKey(7, 5, 5), chol.TaskKey(7, 6, 5)},
		}, tiles)
	})
	run("par", func(t *testing.T, tiles int) {
		checkRelation(t, recurrence[par.Tile]{
			tasks: func(tiles int, visit func(par.Tile)) {
				par.Walk(tiles, func(t par.Tile, _ bool) { visit(t) })
			},
			preds: par.Preds,
			succs: par.Succs,
		}, tiles)
	})
}

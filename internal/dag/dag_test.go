package dag

import (
	"fmt"
	"sync"
	"testing"
)

// key is the task key of the synthetic recurrences below.
type key struct{ I int }

// chain is a data-flow graph of n tasks in a line: task i waits for i−1.
func chain(n int) *Dataflow[key] {
	return NewDataflow(n,
		func(k key) int { return k.I },
		func(id int) key { return key{id} },
		func(k key) Kind {
			if k.I == 0 {
				return KindA
			}
			return KindD
		},
		func(k key, f func(key) bool) bool { return k.I == 0 || f(key{k.I - 1}) },
		func(k key, f func(key) bool) bool { return k.I == n-1 || f(key{k.I + 1}) })
}

// A Dataflow answers every question from its numbering and relation.
func TestDataflowAsksItsRelation(t *testing.T) {
	g := chain(4)
	s := Analyze(g)
	if s.Nodes != 4 || s.Tasks != 4 || s.Edges != 3 || s.SourceCnt != 1 ||
		s.ByKind[KindA] != 1 || s.ByKind[KindD] != 3 {
		t.Fatalf("stats %+v", s)
	}
	for id := 0; id < g.Len(); id++ {
		var succs []int
		g.EachSucc(id, func(s int) { succs = append(succs, s) })
		want := "[]"
		if id < 3 {
			want = fmt.Sprint([]int{id + 1})
		}
		if fmt.Sprint(succs) != want || g.InDeg(id) != min(id, 1) {
			t.Fatalf("node %d: succs %v, in-degree %d", id, succs, g.InDeg(id))
		}
	}
	if err := CheckAcyclic(g); err != nil {
		t.Fatal(err)
	}
}

// A Dataflow is shared by concurrent simulations: every goroutine sees the
// whole relation, whatever the others ask at the same time.
func TestDataflowSharedAcrossGoroutines(t *testing.T) {
	g := chain(64)
	want := Analyze(g)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if got := Analyze(g); got != want {
					t.Errorf("stats %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// edges lists a graph's edges as "from->to" in node and successor order.
func edges(g Graph) []string {
	var out []string
	for id := 0; id < g.Len(); id++ {
		g.EachSucc(id, func(s int) { out = append(out, fmt.Sprintf("%d->%d", id, s)) })
	}
	return out
}

// ForkJoin's graph of a walk given as named stages: a base call is a task
// after its predecessor, a stage of several calls ends in a join, a stage
// of one call chains directly, and a flat root is walked, never a task.
func TestForkJoinAcyclic(t *testing.T) {
	stages := map[string][][]string{
		"root": {{"a"}, {"b", "c"}, {"d"}},
		"b":    {{"b1", "b2"}},
	}
	walk := func(c string, _ bool, visit func(string, bool)) {
		for _, st := range stages[c] {
			for i, sub := range st {
				visit(sub, i == len(st)-1)
			}
		}
	}
	for _, tc := range []struct {
		flat         bool
		leaf         func(string) (Kind, bool)
		kinds, edges string
	}{
		// a, b1, b2, b's join, c, the root stage's join, d.
		{false, func(c string) (Kind, bool) { _, rec := stages[c]; return KindD, !rec },
			"[D D D join D join D]", "[0->1 0->2 0->4 1->3 2->3 3->5 4->5 5->6]"},
		// Every call is a base task, as under a flat walk, yet the root is
		// walked: a, b, c, their join, d.
		{true, func(string) (Kind, bool) { return KindA, true },
			"[A A A join A]", "[0->1 0->2 1->3 2->3 3->4]"},
	} {
		g := ForkJoin("root", tc.flat, tc.leaf, walk)
		if err := CheckAcyclic(g); err != nil {
			t.Fatal(err)
		}
		var kinds []Kind
		for id := 0; id < g.Len(); id++ {
			kinds = append(kinds, g.Kind(id))
		}
		if got := fmt.Sprint(kinds); got != tc.kinds {
			t.Fatalf("flat=%v: kinds %s, want %s", tc.flat, got, tc.kinds)
		}
		if got := fmt.Sprint(edges(g)); got != tc.edges {
			t.Fatalf("flat=%v: edges %s, want %s", tc.flat, got, tc.edges)
		}
	}
}

func TestInvalidConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSWWavefrontBarrier(0)
}

func TestKindString(t *testing.T) {
	if KindA.String() != "A" || KindJoin.String() != "join" || KindSW.String() != "SW" {
		t.Fatal("kind names wrong")
	}
}

// unitSpan computes the critical path length in tasks (joins free).
func unitSpan(t *testing.T, g Graph) int {
	n := g.Len()
	indeg := make([]int, n)
	depth := make([]int, n)
	var queue []int
	for i := 0; i < n; i++ {
		indeg[i] = g.InDeg(i)
		if indeg[i] == 0 {
			queue = append(queue, i)
			if g.Kind(i) != KindJoin {
				depth[i] = 1
			}
		}
	}
	best := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if depth[id] > best {
			best = depth[id]
		}
		g.EachSucc(id, func(s int) {
			d := depth[id]
			if g.Kind(s) != KindJoin {
				d++
			}
			if d > depth[s] {
				depth[s] = d
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		})
	}
	return best
}

func TestSWWavefrontBarrier(t *testing.T) {
	for _, tiles := range []int{1, 2, 4, 8} {
		g := NewSWWavefrontBarrier(tiles)
		if err := CheckAcyclic(g); err != nil {
			t.Fatalf("tiles=%d: %v", tiles, err)
		}
		s := Analyze(g)
		if s.ByKind[KindSW] != tiles*tiles {
			t.Fatalf("tiles=%d: %d SW tasks", tiles, s.ByKind[KindSW])
		}
		if s.ByKind[KindJoin] != 2*tiles-1 {
			t.Fatalf("tiles=%d: %d joins, want %d", tiles, s.ByKind[KindJoin], 2*tiles-1)
		}
		// Span: exactly one task per diagonal -> 2T-1, like data-flow.
		if span := unitSpan(t, g); span != 2*tiles-1 {
			t.Fatalf("tiles=%d: span %d, want %d", tiles, span, 2*tiles-1)
		}
	}
}

package bench

import (
	"fmt"
	"reflect"
	"testing"

	"dpflow/internal/dag"
)

// TestTaskGraphs holds every registry entry's two task graphs to their
// contract at every size from 1 to 8 tiles per side; a new entry is held to
// it with no new test code. The index space numbers exactly the Flow's
// tasks, both ways, and refuses every other key; the data-flow graph has the
// closed-form census and one source; the fork-join graph runs the Flow's
// walk over the same tasks and orders every pair the data-flow graph
// orders. Neither graph exists for zero tiles, and the fork-join graph only
// where the Flow does: tiles a power of two. At 1 to 16 tiles TotalTasks,
// the census summed and the numbering's size are the paper's closed form.
func TestTaskGraphs(t *testing.T) {
	for _, b := range All() {
		g, ok := b.(interface {
			checkTaskGraphs(t *testing.T, b Benchmark, tiles int)
			checkCensus(t *testing.T, b Benchmark, tiles int)
		})
		if !ok {
			t.Fatalf("%s does not state its task graphs through taskGraphs", b.Name())
		}
		if !panics(func() { b.Dataflow(0) }) {
			t.Fatalf("%s: Dataflow(0) did not panic", b.Name())
		}
		for tiles := 1; tiles <= 16; tiles++ {
			g.checkCensus(t, b, tiles)
		}
		for tiles := 1; tiles <= 8; tiles++ {
			t.Run(fmt.Sprintf("%s/%d", b.Name(), tiles), func(t *testing.T) { g.checkTaskGraphs(t, b, tiles) })
		}
	}
}

// paperTasks is the paper's closed-form base-task count of a T×T-tile
// problem: (1/3)T³ + (1/2)T² + (1/6)T = T(T+1)(2T+1)/6 for GE, T³ for FW,
// T² for SW and the tetrahedral number T(T+1)(T+2)/6 for chol.
func paperTasks(name string, T int) int {
	switch name {
	case "ge":
		return T * (T + 1) * (2*T + 1) / 6
	case "fw":
		return T * T * T
	case "sw":
		return T * T
	case "chol":
		return T * (T + 1) * (T + 2) / 6
	}
	panic("no closed-form task count for " + name)
}

func (g taskGraphs[T, K]) checkCensus(t *testing.T, b Benchmark, tiles int) {
	sum := 0
	for _, count := range b.KindCounts(tiles) {
		sum += count
	}
	total, n, want := b.TotalTasks(tiles), g.numbering(tiles).N, paperTasks(b.Name(), tiles)
	if total != want || sum != want || n != want {
		t.Fatalf("%s, %d tiles: TotalTasks %d, census %d, numbering %d, the paper's closed form %d", b.Name(), tiles, total, sum, n, want)
	}
}

func (g taskGraphs[T, K]) checkTaskGraphs(t *testing.T, b Benchmark, tiles int) {
	df := b.Dataflow(tiles).(*dag.Dataflow[K])

	// ID∘Key is the identity, and ID accepts exactly the task space: every
	// key whose coordinates lie in [−1, tiles+1] is refused or named back
	// by Key. The triangular shape's (0,3,2) and Cholesky's wrong-kind
	// keys are among the refused.
	for id := 0; id < df.Len(); id++ {
		if got := df.ID(df.Key(id)); got != id {
			t.Fatalf("ID(Key(%d)) = %d", id, got)
		}
	}
	accepted := 0
	eachKey(-1, tiles+1, func(k K) {
		id, ok := tryID(df, k)
		if !ok {
			return
		}
		accepted++
		if id < 0 || id >= df.Len() || df.Key(id) != k {
			t.Fatalf("ID(%v) = %d, whose key is %v", k, id, df.Key(id))
		}
	})
	if accepted != df.Len() {
		t.Fatalf("ID accepts %d keys, the space has %d tasks", accepted, df.Len())
	}

	// The census is the closed form, with no joins; one task is ready at
	// the start.
	st := dag.Analyze(df)
	if st.ByKind != b.KindCounts(tiles) {
		t.Fatalf("data-flow census %v, KindCounts %v", st.ByKind, b.KindCounts(tiles))
	}
	if st.SourceCnt != 1 {
		t.Fatalf("%d sources, want 1", st.SourceCnt)
	}
	if err := dag.CheckAcyclic(df); err != nil {
		t.Fatal(err)
	}

	if tiles&(tiles-1) != 0 {
		if !panics(func() { b.ForkJoin(tiles) }) {
			t.Fatalf("ForkJoin(%d) did not panic: the Flow's walk needs a power of two", tiles)
		}
		return
	}
	f, err := g.flow(tiles)
	if err != nil {
		t.Fatal(err)
	}

	// Key enumerates exactly the Flow's flat walk, whose first task is the
	// source.
	seen := make([]bool, df.Len())
	first := -1
	f.Walk(f.Root, true, func(sub T, _ bool) {
		k, base := f.Task(sub)
		id, ok := tryID(df, k)
		if !base || !ok || seen[id] {
			t.Fatalf("the flat walk visits %v (base %v, in the space %v) twice or outside the space", k, base, ok)
		}
		seen[id] = true
		if first < 0 {
			first = id
		}
	})
	for id, ok := range seen {
		if !ok {
			t.Fatalf("the flat walk never visits %v", df.Key(id))
		}
	}
	if df.InDeg(first) != 0 {
		t.Fatalf("the flat walk's first task %v is not the source", df.Key(first))
	}

	// The fork-join graph's tasks are the base tasks of the Flow's walk, in
	// the order the serial recursion reaches them.
	fj := b.ForkJoin(tiles)
	if err := dag.CheckAcyclic(fj); err != nil {
		t.Fatal(err)
	}
	var order []int // data-flow id of each fork-join task, in node order
	var walk func(c T, flat bool)
	walk = func(c T, flat bool) {
		if k, base := f.Task(c); base && !flat {
			order = append(order, df.ID(k))
			return
		}
		f.Walk(c, flat, func(sub T, _ bool) { walk(sub, false) })
	}
	walk(f.Root, f.Flat)
	node := make([]int, df.Len()) // fork-join node of each data-flow task
	fjStats := dag.Analyze(fj)
	if fjStats.Tasks != len(order) || len(order) != df.Len() {
		t.Fatalf("fork-join has %d tasks, the walk reaches %d, data-flow has %d", fjStats.Tasks, len(order), df.Len())
	}
	fjStats.ByKind[dag.KindJoin] = 0
	if fjStats.ByKind != st.ByKind {
		t.Fatalf("fork-join census %v, data-flow census %v", fjStats.ByKind, st.ByKind)
	}
	for id, n := 0, 0; id < fj.Len(); id++ {
		if fj.Kind(id) == dag.KindJoin {
			continue
		}
		if got, want := fj.Kind(id), df.Kind(order[n]); got != want {
			t.Fatalf("fork-join task %d is a %v task, the walk reaches %v, a %v task", id, got, df.Key(order[n]), want)
		}
		node[order[n]] = id
		n++
	}

	// Fork-join ⊇ data-flow: every data-flow edge joins two tasks the
	// fork-join graph orders. FW's write-after-read edges it orders the
	// other way round; the GEP flow edges' direction is checked with the
	// r-way graphs in internal/harness.
	reach := reachability(fj)
	for u := 0; u < df.Len(); u++ {
		df.EachSucc(u, func(v int) {
			if !reach[node[u]][node[v]] && !reach[node[v]][node[u]] {
				t.Fatalf("data-flow edge %v -> %v is not ordered by fork-join", df.Key(u), df.Key(v))
			}
		})
	}
}

// reachability returns the transitive closure of g: reach[u][v] when a
// path leads from u to v.
func reachability(g dag.Graph) [][]bool {
	n := g.Len()
	indeg := make([]int, n)
	var order []int
	for id := 0; id < n; id++ {
		if indeg[id] = g.InDeg(id); indeg[id] == 0 {
			order = append(order, id)
		}
	}
	for i := 0; i < len(order); i++ {
		g.EachSucc(order[i], func(s int) {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, s)
			}
		})
	}
	reach := make([][]bool, n)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		reach[u] = make([]bool, n)
		g.EachSucc(u, func(s int) {
			reach[u][s] = true
			for x, r := range reach[s] {
				reach[u][x] = reach[u][x] || r
			}
		})
	}
	return reach
}

// eachKey visits every key whose fields — a task key is a struct of int
// coordinates — all lie in [lo, hi].
func eachKey[K any](lo, hi int, visit func(K)) {
	var k K
	v := reflect.ValueOf(&k).Elem()
	var field func(i int)
	field = func(i int) {
		if i == v.NumField() {
			visit(k)
			return
		}
		for x := lo; x <= hi; x++ {
			v.Field(i).SetInt(int64(x))
			field(i + 1)
		}
	}
	field(0)
}

// tryID is df.ID(k), or false where ID panics: k is outside the space.
func tryID[K comparable](df *dag.Dataflow[K], k K) (id int, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return df.ID(k), true
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestFlowNumbering holds every registry entry's numbering — the one its
// Flow carries and its data-flow graph names nodes by — to its contract at
// 1 to 8 tiles per side: ID is a bijection onto [0, N) whose inverse is
// Key, over exactly the TotalTasks base tasks; where the Flow exists (tiles
// a power of two) over exactly the tasks its flat walk visits, and the
// Flow carries that same numbering.
func TestFlowNumbering(t *testing.T) {
	for _, b := range All() {
		g, ok := b.(interface {
			checkNumbering(t *testing.T, b Benchmark, tiles int)
		})
		if !ok {
			t.Fatalf("%s does not state its numbering through taskGraphs", b.Name())
		}
		for tiles := 1; tiles <= 8; tiles++ {
			t.Run(fmt.Sprintf("%s/%d", b.Name(), tiles), func(t *testing.T) { g.checkNumbering(t, b, tiles) })
		}
	}
}

func (g taskGraphs[T, K]) checkNumbering(t *testing.T, b Benchmark, tiles int) {
	nb := g.numbering(tiles)
	if nb.N != b.TotalTasks(tiles) {
		t.Fatalf("N = %d, TotalTasks %d", nb.N, b.TotalTasks(tiles))
	}
	for id := 0; id < nb.N; id++ {
		if got := nb.ID(nb.Key(id)); got != id {
			t.Fatalf("ID(Key(%d)) = ID(%v) = %d", id, nb.Key(id), got)
		}
	}
	if tiles&(tiles-1) != 0 {
		return
	}
	f, err := g.flow(tiles)
	if err != nil {
		t.Fatal(err)
	}
	if f.N != nb.N {
		t.Fatalf("the Flow numbers %d tasks, the entry %d", f.N, nb.N)
	}
	seen := make([]bool, f.N)
	visited := 0
	f.Walk(f.Root, true, func(sub T, _ bool) {
		k, base := f.Task(sub)
		id := f.ID(k)
		if !base || id < 0 || id >= f.N || seen[id] || f.Key(id) != k || nb.ID(k) != id {
			t.Fatalf("the flat walk's task %v (base %v) has number %d: outside [0, %d), twice, or not named back", k, base, id, f.N)
		}
		seen[id] = true
		visited++
	})
	if visited != f.N {
		t.Fatalf("the flat walk visits %d tasks, the numbering has %d", visited, f.N)
	}
}

package harness

import (
	"fmt"
	"testing"

	"dpflow/internal/bench"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/simsched"
)

// gepGraphs returns the registry entry of shape, its data-flow graph and
// the r-way fork-join graph rwayForkJoin builds over it.
func gepGraphs(t *testing.T, shape gep.Shape, tiles, r int) (bench.Benchmark, *dag.Dataflow[gep.ItemKey], *dag.CSR) {
	t.Helper()
	name := "ge"
	if shape == gep.Cube {
		name = "fw"
	}
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	df := b.Dataflow(tiles).(*dag.Dataflow[gep.ItemKey])
	return b, df, rwayForkJoin(df, shape, tiles, r)
}

// The fork-join ordering must contain every data-flow FLOW dependency: if
// task u produces a value task v consumes, u must be an ancestor of v in
// the fork-join graph. This is what "joins only ADD artificial
// dependencies" means, and it is why the fork-join execution is correct —
// for the r-way split too, which is what dpbench -exp rway relies on when
// it prices the r-way graphs (the runtime runs r = 2 only, and its graph is
// the registry's ForkJoin).
//
// The Cube shape's write-after-read anti-dependencies are deliberately
// excluded: fork-join resolves those hazards in the OPPOSITE direction
// (the diagonal block is fully re-eliminated before the pivot-row/column
// functions read it), which is also race-free and — by min-plus
// monotonicity — value-correct for FW. The two models therefore order the
// WAR pairs differently while agreeing on the final matrix (asserted
// bit-exactly in internal/gep's tests).
func TestForkJoinDominatesDataflow(t *testing.T) {
	for _, shape := range []gep.Shape{gep.Triangular, gep.Cube} {
		for _, c := range [][2]int{{4, 2}, {4, 4}, {8, 2}, {8, 8}} { // tiles, r: 8 is no power of 4
			checkDominates(t, shape, c[0], c[1])
		}
	}
}

func checkDominates(t *testing.T, shape gep.Shape, tiles, r int) {
	t.Helper()
	b, df, fj := gepGraphs(t, shape, tiles, r)
	if r == 2 {
		if got, want := edges(fj), edges(b.ForkJoin(tiles)); got != want {
			t.Fatalf("%v tiles=%d: the 2-way graph differs from the registry's ForkJoin", shape, tiles)
		}
	}

	// The builder numbers leaves in the order the serial recursion reaches
	// base cases, so replaying the walk maps coordinates to node ids. For
	// r = 2 the hand-written recursion of the paper's Figure 2 must agree.
	coords := walkOrder(tiles, r, shape)
	if r == 2 && fmt.Sprint(coords) != fmt.Sprint(gepSerialOrder(tiles, shape)) {
		t.Fatalf("%v tiles=%d: the 2-way walk's leaf order differs from Figure 2's recursion", shape, tiles)
	}
	leafIDs := []int{}
	for id := 0; id < fj.Len(); id++ {
		if fj.Kind(id) != dag.KindJoin {
			leafIDs = append(leafIDs, id)
		}
	}
	if len(coords) != len(leafIDs) {
		t.Fatalf("%v tiles=%d r=%d: %d coords vs %d leaves", shape, tiles, r, len(coords), len(leafIDs))
	}
	fjNode := make(map[[3]int]int)
	for idx, c := range coords {
		fjNode[c] = leafIDs[idx]
		if got, want := fj.Kind(leafIDs[idx]), df.Kind(df.ID(gep.ItemKey{I: c[0], J: c[1], K: c[2]})); got != want {
			t.Fatalf("%v tiles=%d r=%d: leaf %d is a %v task, the walk reaches (%d,%d,%d), a %v task",
				shape, tiles, r, idx, got, c[0], c[1], c[2], want)
		}
	}

	// Reachability closure over the fork-join DAG (bitset per node).
	n := fj.Len()
	reach := make([][]bool, n)
	order := topoOrder(t, fj)
	for i := n - 1; i >= 0; i-- {
		id := order[i]
		reach[id] = make([]bool, n)
		fj.EachSucc(id, func(s int) {
			reach[id][s] = true
			for x := 0; x < n; x++ {
				if reach[s][x] {
					reach[id][x] = true
				}
			}
		})
	}

	// Enumerate the flow dependencies directly (prev / A / B / C); this
	// excludes the Cube anti-dependency edges EachSucc also reports.
	for id := 0; id < df.Len(); id++ {
		key := df.Key(id)
		vi, vj, vk := key.I, key.J, key.K
		v := fjNode[[3]int{vi, vj, vk}]
		var preds [][3]int
		if vk > 0 {
			preds = append(preds, [3]int{vi, vj, vk - 1})
		}
		switch gep.Classify(vi, vj, vk) {
		case gep.FuncB, gep.FuncC:
			preds = append(preds, [3]int{vk, vk, vk})
		case gep.FuncD:
			preds = append(preds, [3]int{vk, vk, vk}, [3]int{vk, vj, vk}, [3]int{vi, vk, vk})
		}
		for _, pc := range preds {
			u := fjNode[pc]
			if u == v {
				continue
			}
			if !reach[u][v] {
				t.Fatalf("%v tiles=%d r=%d: flow edge (%d,%d,%d)->(%d,%d,%d) not ordered by fork-join",
					shape, tiles, r, pc[0], pc[1], pc[2], vi, vj, vk)
			}
		}
	}
}

// edges renders a graph's kinds and edges, in node and successor order.
func edges(g dag.Graph) string {
	var out []string
	for id := 0; id < g.Len(); id++ {
		out = append(out, g.Kind(id).String())
		g.EachSucc(id, func(s int) { out = append(out, fmt.Sprintf("%d->%d", id, s)) })
	}
	return fmt.Sprint(out)
}

// walkOrder replays shape's r-way walk from the root and returns base-case
// coordinates in visit order.
func walkOrder(tiles, r int, shape gep.Shape) [][3]int {
	var out [][3]int
	var rec func(t gep.Tag)
	rec = func(t gep.Tag) {
		if t.S == 1 {
			out = append(out, [3]int{t.I, t.J, t.K})
			return
		}
		shape.Walk(t, r, func(sub gep.Tag, _ bool) { rec(sub) })
	}
	rec(gep.Tag{S: tiles})
	return out
}

// gepSerialOrder replays the serial recursion and returns base-case
// coordinates in visit order — written out by hand, so it also checks the
// generic walk's r = 2 leaf order against the paper's Figure 2.
func gepSerialOrder(tiles int, shape gep.Shape) [][3]int {
	var out [][3]int
	var fa, fb, fc, fd func(args [3]int, s int)
	leaf := func(i, j, k int) { out = append(out, [3]int{i, j, k}) }
	fa = func(a [3]int, s int) {
		d := a[0]
		if s == 1 {
			leaf(d, d, d)
			return
		}
		h := s / 2
		fa([3]int{d}, h)
		fb([3]int{d, d + h, d}, h)
		fc([3]int{d + h, d, d}, h)
		fd([3]int{d + h, d + h, d}, h)
		fa([3]int{d + h}, h)
		if shape == gep.Cube {
			fb([3]int{d + h, d, d + h}, h)
			fc([3]int{d, d + h, d + h}, h)
			fd([3]int{d, d, d + h}, h)
		}
	}
	fb = func(a [3]int, s int) {
		i0, j0, k0 := a[0], a[1], a[2]
		if s == 1 {
			leaf(i0, j0, k0)
			return
		}
		h := s / 2
		fb([3]int{i0, j0, k0}, h)
		fb([3]int{i0, j0 + h, k0}, h)
		fd([3]int{i0 + h, j0, k0}, h)
		fd([3]int{i0 + h, j0 + h, k0}, h)
		fb([3]int{i0 + h, j0, k0 + h}, h)
		fb([3]int{i0 + h, j0 + h, k0 + h}, h)
		if shape == gep.Cube {
			fd([3]int{i0, j0, k0 + h}, h)
			fd([3]int{i0, j0 + h, k0 + h}, h)
		}
	}
	fc = func(a [3]int, s int) {
		i0, j0, k0 := a[0], a[1], a[2]
		if s == 1 {
			leaf(i0, j0, k0)
			return
		}
		h := s / 2
		fc([3]int{i0, j0, k0}, h)
		fc([3]int{i0 + h, j0, k0}, h)
		fd([3]int{i0, j0 + h, k0}, h)
		fd([3]int{i0 + h, j0 + h, k0}, h)
		fc([3]int{i0, j0 + h, k0 + h}, h)
		fc([3]int{i0 + h, j0 + h, k0 + h}, h)
		if shape == gep.Cube {
			fd([3]int{i0, j0, k0 + h}, h)
			fd([3]int{i0 + h, j0, k0 + h}, h)
		}
	}
	fd = func(a [3]int, s int) {
		i0, j0, k0 := a[0], a[1], a[2]
		if s == 1 {
			leaf(i0, j0, k0)
			return
		}
		h := s / 2
		for kk := 0; kk <= h; kk += h {
			fd([3]int{i0, j0, k0 + kk}, h)
			fd([3]int{i0, j0 + h, k0 + kk}, h)
			fd([3]int{i0 + h, j0, k0 + kk}, h)
			fd([3]int{i0 + h, j0 + h, k0 + kk}, h)
		}
	}
	fa([3]int{0}, tiles)
	return out
}

func topoOrder(t *testing.T, g dag.Graph) []int {
	n := g.Len()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = g.InDeg(i)
	}
	var order []int
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		g.EachSucc(id, func(s int) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		})
	}
	if len(order) != n {
		t.Fatalf("cyclic graph in topoOrder")
	}
	return order
}

// The r-way fork-join DAG keeps the same base-task census and shrinks the
// span monotonically toward the data-flow span as r grows.
func TestRWayForkJoinCensusAndSpan(t *testing.T) {
	const tiles = 16
	for _, shape := range []gep.Shape{gep.Triangular, gep.Cube} {
		for _, r := range []int{2, 4, 16} {
			_, df, g := gepGraphs(t, shape, tiles, r)
			if err := dag.CheckAcyclic(g); err != nil {
				t.Fatalf("%v r=%d: %v", shape, r, err)
			}
			s, want := dag.Analyze(g), dag.Analyze(df)
			for k := dag.KindA; k <= dag.KindD; k++ {
				if s.ByKind[k] != want.ByKind[k] {
					t.Fatalf("%v r=%d kind %v: %d tasks, dataflow has %d",
						shape, r, k, s.ByKind[k], want.ByKind[k])
				}
			}
		}
	}
	// Span monotone in r (unit costs, triangular).
	prev := 1 << 30
	for _, r := range []int{2, 4, 16} {
		_, _, g := gepGraphs(t, gep.Triangular, tiles, r)
		span := unitSpan(t, g)
		if span > prev {
			t.Fatalf("r=%d span %d grew from %d", r, span, prev)
		}
		prev = span
	}
}

func TestRWayInvalid(t *testing.T) {
	for _, f := range []func(){
		func() { gepGraphs(t, gep.Triangular, 16, 1) },
		func() { gepGraphs(t, gep.Triangular, 12, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// unitSpan computes the critical path length in tasks (joins free).
func unitSpan(t *testing.T, g dag.Graph) int {
	r, err := simsched.Simulate(g, 0, unitCosts())
	if err != nil {
		t.Fatal(err)
	}
	return int(r.Makespan)
}

package dag

import (
	"fmt"
	"testing"

	"dpflow/internal/gep"
)

func TestGEPDataflowIDCoordsRoundTrip(t *testing.T) {
	for _, shape := range []gep.Shape{gep.Triangular, gep.Cube} {
		g := NewGEPDataflow(6, shape)
		seen := make(map[int]bool)
		for k := 0; k < 6; k++ {
			lo := 0
			if shape == gep.Triangular {
				lo = k
			}
			for i := lo; i < 6; i++ {
				for j := lo; j < 6; j++ {
					id := g.ID(i, j, k)
					if seen[id] {
						t.Fatalf("%v: duplicate id %d", shape, id)
					}
					seen[id] = true
					ri, rj, rk := g.Coords(id)
					if ri != i || rj != j || rk != k {
						t.Fatalf("%v: roundtrip (%d,%d,%d) -> %d -> (%d,%d,%d)",
							shape, i, j, k, id, ri, rj, rk)
					}
				}
			}
		}
		if len(seen) != g.Len() {
			t.Fatalf("%v: enumerated %d ids, Len = %d", shape, len(seen), g.Len())
		}
	}
}

func TestGEPDataflowTaskCensus(t *testing.T) {
	for _, shape := range []gep.Shape{gep.Triangular, gep.Cube} {
		for _, tiles := range []int{1, 2, 4, 7} {
			g := NewGEPDataflow(tiles, shape)
			s := Analyze(g)
			wa, wb, wc, wd := gep.TaskCount(tiles, shape)
			if s.ByKind[KindA] != wa || s.ByKind[KindB] != wb || s.ByKind[KindC] != wc || s.ByKind[KindD] != wd {
				t.Fatalf("%v tiles=%d: census %v, want A=%d B=%d C=%d D=%d",
					shape, tiles, s.ByKind, wa, wb, wc, wd)
			}
			if s.ByKind[KindJoin] != 0 {
				t.Fatalf("dataflow graph has join nodes")
			}
		}
	}
}

func TestGEPDataflowSingleSource(t *testing.T) {
	for _, shape := range []gep.Shape{gep.Triangular, gep.Cube} {
		g := NewGEPDataflow(4, shape)
		s := Analyze(g)
		if s.SourceCnt != 1 {
			t.Fatalf("%v: %d sources, want 1 (A(0,0,0))", shape, s.SourceCnt)
		}
		if g.Kind(g.ID(0, 0, 0)) != KindA || g.InDeg(g.ID(0, 0, 0)) != 0 {
			t.Fatalf("%v: A(0,0,0) is not the source", shape)
		}
	}
}

func TestSWDataflow(t *testing.T) {
	g := NewSWDataflow(4)
	if g.Len() != 16 {
		t.Fatalf("Len = %d", g.Len())
	}
	for id := 0; id < g.Len(); id++ {
		if i, j := g.Coords(id); g.ID(i, j) != id || g.Kind(id) != KindSW {
			t.Fatalf("id %d -> (%d,%d) -> %d, kind %v", id, i, j, g.ID(i, j), g.Kind(id))
		}
	}
}

func TestForkJoinTaskCensusMatchesDataflow(t *testing.T) {
	for _, shape := range []gep.Shape{gep.Triangular, gep.Cube} {
		for _, tiles := range []int{1, 2, 4, 8} {
			fj := Analyze(NewGEPForkJoin(tiles, shape))
			df := Analyze(NewGEPDataflow(tiles, shape))
			for k := KindA; k <= KindD; k++ {
				if fj.ByKind[k] != df.ByKind[k] {
					t.Fatalf("%v tiles=%d kind %v: forkjoin %d tasks, dataflow %d",
						shape, tiles, k, fj.ByKind[k], df.ByKind[k])
				}
			}
		}
	}
	fj := Analyze(NewSWForkJoin(8))
	if fj.ByKind[KindSW] != 64 {
		t.Fatalf("SW forkjoin base tasks = %d, want 64", fj.ByKind[KindSW])
	}
}

func TestForkJoinAcyclic(t *testing.T) {
	for _, shape := range []gep.Shape{gep.Triangular, gep.Cube} {
		if err := CheckAcyclic(NewGEPForkJoin(8, shape)); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
	}
	if err := CheckAcyclic(NewSWForkJoin(16)); err != nil {
		t.Fatal(err)
	}
}

// The fork-join ordering must contain every data-flow FLOW dependency: if
// task u produces a value task v consumes, u must be an ancestor of v in
// the fork-join graph. This is what "joins only ADD artificial
// dependencies" means, and it is why the fork-join execution is correct —
// for the r-way split too, which is what dpbench -exp rway relies on when
// it prices the r-way graphs (the runtime runs r = 2 only).
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
	df := NewGEPDataflow(tiles, shape)
	fj := NewGEPForkJoinR(tiles, r, shape)

	// The builder numbers leaves in the order the serial recursion reaches
	// base cases, so replaying the walk maps coordinates to node ids. For
	// r = 2 the hand-written recursion of the paper's Figure 2 must agree.
	coords := walkOrder(tiles, r, shape)
	if r == 2 && fmt.Sprint(coords) != fmt.Sprint(gepSerialOrder(tiles, shape)) {
		t.Fatalf("%v tiles=%d: the 2-way walk's leaf order differs from Figure 2's recursion", shape, tiles)
	}
	leafIDs := []int{}
	for id := 0; id < fj.Len(); id++ {
		if fj.Kind(id) != KindJoin {
			leafIDs = append(leafIDs, id)
		}
	}
	if len(coords) != len(leafIDs) {
		t.Fatalf("%v tiles=%d r=%d: %d coords vs %d leaves", shape, tiles, r, len(coords), len(leafIDs))
	}
	fjNode := make(map[[3]int]int)
	for idx, c := range coords {
		fjNode[c] = leafIDs[idx]
		if got, want := fj.Kind(leafIDs[idx]), df.Kind(df.ID(c[0], c[1], c[2])); got != want {
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
		vi, vj, vk := df.Coords(id)
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

func topoOrder(t *testing.T, g Graph) []int {
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

func TestInvalidConstruction(t *testing.T) {
	for _, f := range []func(){
		func() { NewGEPDataflow(0, gep.Triangular) },
		func() { NewSWDataflow(0) },
		func() { NewGEPForkJoin(3, gep.Triangular) },
		func() { NewSWForkJoin(6) },
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

func TestTriangularIDPanicsOutsideTaskSpace(t *testing.T) {
	g := NewGEPDataflow(4, gep.Triangular)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for i < k")
		}
	}()
	g.ID(0, 3, 2)
}

func TestKindString(t *testing.T) {
	if KindA.String() != "A" || KindJoin.String() != "join" || KindSW.String() != "SW" {
		t.Fatal("kind names wrong")
	}
}

// The r-way fork-join DAG keeps the same base-task census and shrinks the
// span monotonically toward the data-flow span as r grows.
func TestRWayForkJoinCensusAndSpan(t *testing.T) {
	const tiles = 16
	for _, shape := range []gep.Shape{gep.Triangular, gep.Cube} {
		df := Analyze(NewGEPDataflow(tiles, shape))
		for _, r := range []int{2, 4, 16} {
			g := NewGEPForkJoinR(tiles, r, shape)
			if err := CheckAcyclic(g); err != nil {
				t.Fatalf("%v r=%d: %v", shape, r, err)
			}
			s := Analyze(g)
			for k := KindA; k <= KindD; k++ {
				if s.ByKind[k] != df.ByKind[k] {
					t.Fatalf("%v r=%d kind %v: %d tasks, dataflow has %d",
						shape, r, k, s.ByKind[k], df.ByKind[k])
				}
			}
		}
	}
	// Span monotone in r (unit costs, triangular).
	prev := 1 << 30
	for _, r := range []int{2, 4, 16} {
		g := NewGEPForkJoinR(tiles, r, gep.Triangular)
		span := unitSpan(t, g)
		if span > prev {
			t.Fatalf("r=%d span %d grew from %d", r, span, prev)
		}
		prev = span
	}
}

func TestRWayInvalid(t *testing.T) {
	for _, f := range []func(){
		func() { NewGEPForkJoinR(16, 1, gep.Triangular) },
		func() { NewGEPForkJoinR(12, 8, gep.Triangular) },
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

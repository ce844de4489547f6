package dag

import "testing"

func TestCholDataflowIDCoordsRoundTrip(t *testing.T) {
	const tiles = 7
	g := NewCholDataflow(tiles)
	seen := make(map[int]bool)
	for k := 0; k < tiles; k++ {
		for j := k; j < tiles; j++ {
			for i := j; i < tiles; i++ {
				id := g.ID(i, j, k)
				if seen[id] {
					t.Fatalf("id %d assigned twice", id)
				}
				seen[id] = true
				ri, rj, rk := g.Coords(id)
				if ri != i || rj != j || rk != k {
					t.Fatalf("Coords(ID(%d,%d,%d)) = (%d,%d,%d)", i, j, k, ri, rj, rk)
				}
			}
		}
	}
	if len(seen) != g.Len() {
		t.Fatalf("enumerated %d tasks, Len() = %d", len(seen), g.Len())
	}
	if want := tiles * (tiles + 1) * (tiles + 2) / 6; g.Len() != want {
		t.Fatalf("Len() = %d, want tetrahedral %d", g.Len(), want)
	}
}

func TestCholDataflowCensusAndAcyclic(t *testing.T) {
	for _, tiles := range []int{1, 2, 3, 4, 8} {
		g := NewCholDataflow(tiles)
		if err := CheckAcyclic(g); err != nil {
			t.Fatalf("tiles=%d: %v", tiles, err)
		}
		st := Analyze(g)
		if st.ByKind[KindA] != tiles {
			t.Fatalf("tiles=%d: %d POTRF tasks, want %d", tiles, st.ByKind[KindA], tiles)
		}
		if want := tiles * (tiles - 1) / 2; st.ByKind[KindC] != want {
			t.Fatalf("tiles=%d: %d TRSM tasks, want %d", tiles, st.ByKind[KindC], want)
		}
		if want := (tiles - 1) * tiles * (tiles + 1) / 6; st.ByKind[KindD] != want {
			t.Fatalf("tiles=%d: %d UPDATE tasks, want %d", tiles, st.ByKind[KindD], want)
		}
		if st.SourceCnt != 1 {
			t.Fatalf("tiles=%d: %d sources, want 1 (POTRF(0))", tiles, st.SourceCnt)
		}
	}
}

// longestPath returns the critical path length in non-join tasks.
func longestPath(t *testing.T, g Graph) int {
	t.Helper()
	n := g.Len()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = g.InDeg(i)
	}
	depth := make([]int, n)
	var queue []int
	best := 0
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		d := depth[id]
		if g.Kind(id) != KindJoin {
			d++
		}
		if d > best {
			best = d
		}
		g.EachSucc(id, func(s int) {
			if d > depth[s] {
				depth[s] = d
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		})
	}
	if seen != n {
		t.Fatalf("longestPath visited %d of %d nodes", seen, n)
	}
	return best
}

// TestCholSpans pins the span claim for Cholesky: the data-flow critical
// path is the 3T−2 chain POTRF→TRSM→UPDATE per phase, while the fork-join
// schedule's per-phase barriers keep the same task-count span here (the
// right-looking batches are depth-1) — the gap shows up in width, not
// depth, which is why the simulated crossover still separates them.
func TestCholSpans(t *testing.T) {
	for _, tiles := range []int{2, 4, 8} {
		df := NewCholDataflow(tiles)
		fj := NewCholForkJoin(tiles)
		if err := CheckAcyclic(fj); err != nil {
			t.Fatalf("tiles=%d fork-join: %v", tiles, err)
		}
		want := 3*tiles - 2
		if got := longestPath(t, df); got != want {
			t.Fatalf("tiles=%d: data-flow span %d, want %d", tiles, got, want)
		}
		if got := longestPath(t, fj); got != want {
			t.Fatalf("tiles=%d: fork-join span %d, want %d", tiles, got, want)
		}
		dfTasks := Analyze(df).Tasks
		if fjTasks := Analyze(fj).Tasks; fjTasks != dfTasks {
			t.Fatalf("tiles=%d: fork-join has %d tasks, data-flow %d", tiles, fjTasks, dfTasks)
		}
	}
}

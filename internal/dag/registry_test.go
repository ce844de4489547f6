package dag_test

// These tests hold the registry's task graphs to closed forms stated
// independently of it: gep.TaskCount, the tetrahedral Cholesky census, the
// named source task. They live in the external test package so that dag
// itself imports no benchmark.

import (
	"testing"

	"dpflow/internal/bench"
	"dpflow/internal/chol"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/sw"
)

// graphs returns the registry entry name's two task graphs at tiles; the
// fork-join graph is nil where tiles is no power of two.
func graphs(t *testing.T, name string, tiles int) (dag.Graph, dag.Graph) {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if tiles&(tiles-1) != 0 {
		return b.Dataflow(tiles), nil
	}
	return b.Dataflow(tiles), b.ForkJoin(tiles)
}

// gepGraph is the data-flow graph of the GEP benchmark of shape.
func gepGraph(t *testing.T, shape gep.Shape, tiles int) *dag.Dataflow[gep.ItemKey] {
	t.Helper()
	name := "ge"
	if shape == gep.Cube {
		name = "fw"
	}
	df, _ := graphs(t, name, tiles)
	return df.(*dag.Dataflow[gep.ItemKey])
}

func cholGraph(t *testing.T, tiles int) *dag.Dataflow[chol.Key] {
	t.Helper()
	df, _ := graphs(t, "chol", tiles)
	return df.(*dag.Dataflow[chol.Key])
}

// cholKey is the Cholesky task (i, j, k): POTRF on the diagonal, TRSM in
// the phase's column, UPDATE in its trailing matrix.
func cholKey(i, j, k int) chol.Key {
	kind := chol.KindUpdate
	switch {
	case i == k:
		kind = chol.KindPotrf
	case j == k:
		kind = chol.KindTrsm
	}
	return chol.Key{Kind: kind, I: i, J: j, K: k}
}

func TestGEPDataflowIDCoordsRoundTrip(t *testing.T) {
	for _, shape := range []gep.Shape{gep.Triangular, gep.Cube} {
		g := gepGraph(t, shape, 6)
		seen := make(map[int]bool)
		for k := 0; k < 6; k++ {
			lo := 0
			if shape == gep.Triangular {
				lo = k
			}
			for i := lo; i < 6; i++ {
				for j := lo; j < 6; j++ {
					c := gep.ItemKey{I: i, J: j, K: k}
					id := g.ID(c)
					if seen[id] {
						t.Fatalf("%v: duplicate id %d", shape, id)
					}
					seen[id] = true
					if r := g.Key(id); r != c {
						t.Fatalf("%v: roundtrip %v -> %d -> %v", shape, c, id, r)
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
			s := dag.Analyze(gepGraph(t, shape, tiles))
			wa, wb, wc, wd := gep.TaskCount(tiles, shape)
			if s.ByKind[dag.KindA] != wa || s.ByKind[dag.KindB] != wb || s.ByKind[dag.KindC] != wc || s.ByKind[dag.KindD] != wd {
				t.Fatalf("%v tiles=%d: census %v, want A=%d B=%d C=%d D=%d",
					shape, tiles, s.ByKind, wa, wb, wc, wd)
			}
			if s.ByKind[dag.KindJoin] != 0 {
				t.Fatalf("dataflow graph has join nodes")
			}
		}
	}
}

func TestGEPDataflowSingleSource(t *testing.T) {
	for _, shape := range []gep.Shape{gep.Triangular, gep.Cube} {
		g := gepGraph(t, shape, 4)
		s := dag.Analyze(g)
		if s.SourceCnt != 1 {
			t.Fatalf("%v: %d sources, want 1 (A(0,0,0))", shape, s.SourceCnt)
		}
		if src := g.ID(gep.ItemKey{}); g.Kind(src) != dag.KindA || g.InDeg(src) != 0 {
			t.Fatalf("%v: A(0,0,0) is not the source", shape)
		}
	}
}

func TestTriangularIDPanicsOutsideTaskSpace(t *testing.T) {
	g := gepGraph(t, gep.Triangular, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for i < k")
		}
	}()
	g.ID(gep.ItemKey{I: 0, J: 3, K: 2})
}

func TestSWDataflow(t *testing.T) {
	df, _ := graphs(t, "sw", 4)
	g := df.(*dag.Dataflow[sw.TileKey])
	if g.Len() != 16 {
		t.Fatalf("Len = %d", g.Len())
	}
	for id := 0; id < g.Len(); id++ {
		if k := g.Key(id); g.ID(k) != id || g.Kind(id) != dag.KindSW {
			t.Fatalf("id %d -> %v -> %d, kind %v", id, k, g.ID(k), g.Kind(id))
		}
	}
}

func TestForkJoinTaskCensusMatchesDataflow(t *testing.T) {
	for _, name := range []string{"ge", "fw"} {
		for _, tiles := range []int{1, 2, 4, 8} {
			df, fj := graphs(t, name, tiles)
			dfs, fjs := dag.Analyze(df), dag.Analyze(fj)
			for k := dag.KindA; k <= dag.KindD; k++ {
				if fjs.ByKind[k] != dfs.ByKind[k] {
					t.Fatalf("%s tiles=%d kind %v: forkjoin %d tasks, dataflow %d",
						name, tiles, k, fjs.ByKind[k], dfs.ByKind[k])
				}
			}
		}
	}
	_, fj := graphs(t, "sw", 8)
	if n := dag.Analyze(fj).ByKind[dag.KindSW]; n != 64 {
		t.Fatalf("SW forkjoin base tasks = %d, want 64", n)
	}
}

func TestCholDataflowIDCoordsRoundTrip(t *testing.T) {
	const tiles = 7
	g := cholGraph(t, tiles)
	seen := make(map[int]bool)
	for k := 0; k < tiles; k++ {
		for j := k; j < tiles; j++ {
			for i := j; i < tiles; i++ {
				c := cholKey(i, j, k)
				id := g.ID(c)
				if seen[id] {
					t.Fatalf("id %d assigned twice", id)
				}
				seen[id] = true
				if r := g.Key(id); r != c {
					t.Fatalf("Key(ID(%v)) = %v", c, r)
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
		g := cholGraph(t, tiles)
		if err := dag.CheckAcyclic(g); err != nil {
			t.Fatalf("tiles=%d: %v", tiles, err)
		}
		st := dag.Analyze(g)
		if st.ByKind[dag.KindA] != tiles {
			t.Fatalf("tiles=%d: %d POTRF tasks, want %d", tiles, st.ByKind[dag.KindA], tiles)
		}
		if want := tiles * (tiles - 1) / 2; st.ByKind[dag.KindC] != want {
			t.Fatalf("tiles=%d: %d TRSM tasks, want %d", tiles, st.ByKind[dag.KindC], want)
		}
		if want := (tiles - 1) * tiles * (tiles + 1) / 6; st.ByKind[dag.KindD] != want {
			t.Fatalf("tiles=%d: %d UPDATE tasks, want %d", tiles, st.ByKind[dag.KindD], want)
		}
		if st.SourceCnt != 1 {
			t.Fatalf("tiles=%d: %d sources, want 1 (POTRF(0))", tiles, st.SourceCnt)
		}
	}
}

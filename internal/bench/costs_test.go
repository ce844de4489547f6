package bench

import (
	"testing"

	"dpflow/internal/dag"
	"dpflow/internal/gep"
)

// The paper's closed-form task count (1/3)T³+(1/2)T²+(1/6)T must equal the
// per-function census of the recursion.
func TestTaskCountFormulaMatchesCensus(t *testing.T) {
	for _, tiles := range []int{1, 2, 3, 4, 8, 16, 100} {
		for name, shape := range map[string]gep.Shape{"ge": gep.Triangular, "fw": gep.Cube} {
			a, b, c, d := gep.TaskCount(tiles, shape)
			if got, want := paperTasks(name, tiles), a+b+c+d; got != want {
				t.Fatalf("%v tiles=%d: formula %d != census %d", shape, tiles, got, want)
			}
		}
	}
}

// Updates must agree with brute-force counting of the guarded loop nest.
func TestUpdatesBruteForce(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4, 8} {
		counts := map[dag.Kind]int{}
		// Count triangular-guard updates in a block by kind geometry:
		// A: i>k && j>k within block; B: rows i>k, all j of a disjoint
		// column block; C: all i, cols j>k; D: everything.
		for k := 0; k < m; k++ {
			counts[dag.KindA] += (m - 1 - k) * (m - 1 - k)
			counts[dag.KindB] += (m - 1 - k) * m
			counts[dag.KindC] += m * (m - 1 - k)
			counts[dag.KindD] += m * m
		}
		for kind, want := range counts {
			if got := Updates(kind, m, gep.Triangular); got != want {
				t.Fatalf("Updates(%v, %d) = %d, want %d", kind, m, got, want)
			}
		}
		if got := Updates(dag.KindB, m, gep.Cube); got != m*m*m {
			t.Fatalf("cube Updates = %d, want %d", got, m*m*m)
		}
		if got := Updates(dag.KindSW, m, gep.Triangular); got != m*m {
			t.Fatalf("SW Updates = %d", got)
		}
	}
}

func TestMaxMissBoundProperties(t *testing.T) {
	ge, err := ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	// The bound must dominate compulsory traffic and grow with m.
	prev := 0.0
	for _, m := range []int{8, 16, 32, 64, 128} {
		b := ge.MaxMissBound(dag.KindD, m, 64)
		if b <= prev {
			t.Fatalf("bound not increasing at m=%d", m)
		}
		if b < CompulsoryLines(m, 64) {
			t.Fatalf("bound %v below compulsory %v at m=%d", b, CompulsoryLines(m, 64), m)
		}
		prev = b
	}
	// Closed-form check for D: m² rows × (2·ceil(m/8)+2) at 64B lines.
	m := 16
	if got, want := ge.MaxMissBound(dag.KindD, m, 64), float64(m*m*(2*2+2)); got != want {
		t.Fatalf("D bound = %v, want %v", got, want)
	}
	// A ≤ B,C ≤ D for the same m.
	a := ge.MaxMissBound(dag.KindA, m, 64)
	b := ge.MaxMissBound(dag.KindB, m, 64)
	d := ge.MaxMissBound(dag.KindD, m, 64)
	if !(a <= b && b <= d) {
		t.Fatalf("bound ordering violated: A=%v B=%v D=%v", a, b, d)
	}
}

// Cholesky's closed forms must sit between the triangular GE bound (same
// per-kind geometry) and, in total, below an equal-tile FW cube census.
func TestCholClosedFormsAgainstGE(t *testing.T) {
	ch, err := ByName("chol")
	if err != nil {
		t.Fatal(err)
	}
	ge, err := ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{8, 16, 64} {
		for _, kind := range []dag.Kind{dag.KindA, dag.KindC, dag.KindD} {
			if ch.Flops(kind, m) != ge.Flops(kind, m) {
				t.Fatalf("CH Flops(%v, %d) = %v, GE = %v", kind, m, ch.Flops(kind, m), ge.Flops(kind, m))
			}
			if ch.MaxMissBound(kind, m, 64) != ge.MaxMissBound(kind, m, 64) {
				t.Fatalf("CH MaxMissBound(%v, %d) diverges from GE", kind, m)
			}
		}
	}
	for _, tiles := range []int{2, 4, 16} {
		if ch.TotalTasks(tiles) >= ge.TotalTasks(tiles) {
			t.Fatalf("tiles=%d: CH works half the matrix, must have fewer tasks than GE (%d vs %d)",
				tiles, ch.TotalTasks(tiles), ge.TotalTasks(tiles))
		}
	}
}

// FW's closed forms are kind-independent: every funcX performs m³
// relaxations of two flops each over full m-wide rows. Pins the cube half of
// the GEP-update forms GE, FW and chol share.
func TestFWClosedForms(t *testing.T) {
	fw, err := ByName("fw")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{8, 16, 64} {
		for _, kind := range []dag.Kind{dag.KindA, dag.KindB, dag.KindC, dag.KindD} {
			if got, want := fw.Flops(kind, m), float64(2*m*m*m); got != want {
				t.Fatalf("FW Flops(%v, %d) = %v, want %v", kind, m, got, want)
			}
			if got, want := fw.MaxMissBound(kind, m, 64), float64(m*m*(2*((m+7)/8)+2)); got != want {
				t.Fatalf("FW MaxMissBound(%v, %d) = %v, want %v", kind, m, got, want)
			}
		}
	}
	if got := fw.TotalTasks(4); got != 64 {
		t.Fatalf("FW TotalTasks(4) = %d, want 64", got)
	}
}

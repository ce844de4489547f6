package gep

import (
	"context"
	"math/rand"
	"testing"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

func geInput(n int, seed int64) *matrix.Dense {
	m := matrix.NewSquare(n)
	m.FillDiagonallyDominant(rand.New(rand.NewSource(seed)))
	return m
}

// serial, forkJoin and runCnC run alg on x through its Flow's three
// interpreters.
func serial(alg Algorithm, x *matrix.Dense, base int) error {
	f, err := alg.Flow(x, base)
	if err != nil {
		return err
	}
	return f.Serial()
}

func forkJoin(alg Algorithm, x *matrix.Dense, base int, p *forkjoin.Pool) error {
	f, err := alg.Flow(x, base)
	if err != nil {
		return err
	}
	return f.ForkJoin(context.Background(), p)
}

func runCnC(alg Algorithm, x *matrix.Dense, base, workers int, v core.Variant, tune func(*cnc.Graph)) (CnCStats, error) {
	f, err := alg.Flow(x, base)
	if err != nil {
		return CnCStats{}, err
	}
	return f.Run(context.Background(), "gep-"+v.String(), workers, v, tune)
}

func TestBaseSize(t *testing.T) {
	cases := []struct{ n, base, want int }{
		{64, 8, 8}, {64, 64, 64}, {64, 100, 64}, {64, 7, 4}, {8, 1, 1}, {16, 3, 2}, {64, 5, 4}, {48, 5, 3},
	}
	for _, c := range cases {
		if got := BaseSize(c.n, c.base); got != c.want {
			t.Errorf("BaseSize(%d,%d) = %d, want %d", c.n, c.base, got, c.want)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	if _, err := GE.Flow(matrix.New(4, 8), 2); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := GE.Flow(matrix.NewSquare(6), 2); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := GE.Flow(matrix.NewSquare(8), 0); err == nil {
		t.Error("base 0 accepted")
	}
}

// The serial recursion must match the loop-based serial kernel exactly —
// same per-element operation order, so bit-identical for GE, and exact
// shortest paths for FW with integer weights.
func TestRDPSerialMatchesLoop(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		for _, base := range []int{1, 2, 4, 8, 16, 64} {
			if base > n {
				continue
			}
			a := geInput(n, int64(n)*31+int64(base))
			ref := a.Clone()
			kernels.GESerial(ref)
			if err := serial(GE, a, base); err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(a, ref) {
				t.Fatalf("GE RDP != loop for n=%d base=%d (maxdiff %g)", n, base, matrix.MaxAbsDiff(a, ref))
			}

			d := randomGraph(n, int64(n)*17+int64(base))
			dref := d.Clone()
			kernels.FWSerial(dref)
			if err := serial(FW, d, base); err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(d, dref) {
				t.Fatalf("FW RDP != loop for n=%d base=%d (maxdiff %g)", n, base, matrix.MaxAbsDiff(d, dref))
			}
		}
	}
}

// Fork-join execution must equal the serial recursion on every worker
// count: the joins only constrain ordering, never change results.
func TestForkJoinMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		pool := forkjoin.NewPool(forkjoin.Config{Workers: workers})
		for _, n := range []int{16, 32, 64} {
			base := 4
			a := geInput(n, int64(n))
			ref := a.Clone()
			kernels.GESerial(ref)
			if err := forkJoin(GE, a, base, pool); err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(a, ref) {
				t.Fatalf("GE forkjoin != serial (workers=%d n=%d)", workers, n)
			}

			d := randomGraph(n, int64(n))
			dref := d.Clone()
			kernels.FWSerial(dref)
			if err := forkJoin(FW, d, base, pool); err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(d, dref) {
				t.Fatalf("FW forkjoin != serial (workers=%d n=%d)", workers, n)
			}
		}
		pool.Close()
	}
}

// Every CnC variant must reproduce the serial result on every worker count.
func TestCnCVariantsMatchSerial(t *testing.T) {
	variants := []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC, core.NonBlockingCnC}
	for _, alg := range []struct {
		name string
		a    Algorithm
		gen  func(int, int64) *matrix.Dense
		ref  func(*matrix.Dense)
	}{
		{"GE", GE, geInput, kernels.GESerial},
		{"FW", FW, randomGraph, kernels.FWSerial},
	} {
		for _, v := range variants {
			for _, workers := range []int{1, 3} {
				for _, n := range []int{16, 32} {
					for _, base := range []int{4, 8, 32} {
						x := alg.gen(n, int64(n)+int64(base))
						ref := x.Clone()
						alg.ref(ref)
						stats, err := runCnC(alg.a, x, base, workers, v, nil)
						if err != nil {
							t.Fatalf("%s %v n=%d base=%d workers=%d: %v", alg.name, v, n, base, workers, err)
						}
						if !matrix.Equal(x, ref) {
							t.Fatalf("%s %v != serial (n=%d base=%d workers=%d, maxdiff %g)",
								alg.name, v, n, base, workers, matrix.MaxAbsDiff(x, ref))
						}
						tiles := n / BaseSize(n, base)
						wa, wb, wc, wd := TaskCount(tiles, alg.a.Shape)
						if want := wa + wb + wc + wd; stats.BaseTasks != want {
							t.Fatalf("%s %v: BaseTasks = %d, want %d (tiles=%d)",
								alg.name, v, stats.BaseTasks, want, tiles)
						}
					}
				}
			}
		}
	}
}

// The tuned variants must never take the speculative abort path: their
// declared dependencies cover every Get.
func TestTunedVariantsDoNotAbort(t *testing.T) {
	for _, v := range []core.Variant{core.TunerCnC, core.ManualCnC} {
		x := geInput(32, 5)
		stats, err := runCnC(GE, x, 4, 3, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Aborts != 0 {
			t.Fatalf("%v: %d aborts; declared deps are incomplete", v, stats.Aborts)
		}
	}
}

// The native variant with several workers does hit the abort path on
// non-trivial problems — otherwise the test for authentic Intel semantics
// exercises nothing.
func TestNativeVariantAborts(t *testing.T) {
	x := geInput(64, 6)
	stats, err := runCnC(GE, x, 4, 4, core.NativeCnC, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Aborts == 0 {
		t.Log("no aborts observed (scheduling was lucky); stats:", stats)
	}
	if stats.StepsDone == 0 {
		t.Fatal("no steps executed")
	}
}

func TestTaskCount(t *testing.T) {
	// Triangular, 4 tiles: A=4, B=C=3+2+1+0=6, D=9+4+1+0=14.
	a, b, c, d := TaskCount(4, Triangular)
	if a != 4 || b != 6 || c != 6 || d != 14 {
		t.Fatalf("triangular TaskCount(4) = %d,%d,%d,%d", a, b, c, d)
	}
	// Cube, 4 tiles: total must be 4^3.
	a, b, c, d = TaskCount(4, Cube)
	if a+b+c+d != 64 {
		t.Fatalf("cube TaskCount(4) total = %d, want 64", a+b+c+d)
	}
	if a != 4 || b != 12 || c != 12 || d != 36 {
		t.Fatalf("cube TaskCount(4) = %d,%d,%d,%d", a, b, c, d)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		i, j, k int
		want    Func
	}{
		{2, 2, 2, FuncA}, {2, 5, 2, FuncB}, {5, 2, 2, FuncC}, {3, 4, 2, FuncD},
		{1, 1, 2, FuncD}, {2, 1, 2, FuncB}, {1, 2, 2, FuncC},
	}
	for _, c := range cases {
		if got := Classify(c.i, c.j, c.k); got != c.want {
			t.Errorf("Classify(%d,%d,%d) = %v, want %v", c.i, c.j, c.k, got, c.want)
		}
	}
}

func TestTagString(t *testing.T) {
	tag := Tag{I: 1, J: 2, K: 3, S: 64}
	if tag.String() != "<<1,2>,<3,64>>" {
		t.Fatalf("Tag.String = %q", tag.String())
	}
}

func TestFuncString(t *testing.T) {
	if FuncA.String() != "funcA" || FuncD.String() != "funcD" {
		t.Fatal("Func names wrong")
	}
}

// Base size 1 (every element its own task) is the extreme the paper's task
// count formula covers; make sure the machinery survives it.
func TestBaseSizeOne(t *testing.T) {
	x := geInput(8, 3)
	ref := x.Clone()
	kernels.GESerial(ref)
	if _, err := runCnC(GE, x, 1, 2, core.NativeCnC, nil); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(x, ref) {
		t.Fatal("base=1 CnC GE wrong")
	}
}

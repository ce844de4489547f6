package chol

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/matrix"
)

// tiledSerial, forkJoin and runCnC factor a through its Flow under one
// interpreter.
func tiledSerial(a *matrix.Dense, base int) error {
	f, err := Flow(a, base)
	if err != nil {
		return err
	}
	return f.Serial()
}

func forkJoin(a *matrix.Dense, base int, pool *forkjoin.Pool) error {
	f, err := Flow(a, base)
	if err != nil {
		return err
	}
	return f.ForkJoin(context.Background(), pool)
}

func runCnC(a *matrix.Dense, base, workers int, v core.Variant, tune func(*cnc.Graph)) (gep.CnCStats, error) {
	f, err := Flow(a, base)
	if err != nil {
		return gep.CnCStats{}, err
	}
	return f.Run(context.Background(), "chol-"+v.String(), workers, v, tune)
}

// TestNewSPDMatchesTripleLoop: the register-blocked NewSPD gives the
// plain triple loop's matrix bit for bit, on sizes with every remainder of
// the four-row block and on both sides of a power of two.
func TestNewSPDMatchesTripleLoop(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 64, 255, 256} {
		b := matrix.NewSquare(n)
		b.FillRandom(rand.New(rand.NewSource(int64(n))), -1, 1)
		want := matrix.NewSquare(n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				sum := 0.0
				for k := 0; k < n; k++ {
					sum += b.At(i, k) * b.At(j, k)
				}
				v := sum/float64(n) + boolTo(i == j)
				want.Set(i, j, v)
				want.Set(j, i, v)
			}
		}
		if err := matrix.Diff(NewSPD(n, rand.New(rand.NewSource(int64(n)))), want); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSerialKnownFactor(t *testing.T) {
	// A = [[4, 12, -16], [12, 37, -43], [-16, -43, 98]] has the textbook
	// factor L = [[2,0,0],[6,1,0],[-8,5,3]].
	a := matrix.FromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	if err := Serial(a); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2}, {6, 1}, {-8, 5, 3}}
	for i, row := range want {
		for j, v := range row {
			if a.At(i, j) != v {
				t.Fatalf("L[%d][%d] = %v, want %v", i, j, a.At(i, j), v)
			}
		}
	}
}

func TestSerialRejectsNonSPD(t *testing.T) {
	a := matrix.FromRows([][]float64{{-1, 0}, {0, 1}})
	if err := Serial(a); err == nil {
		t.Fatal("negative pivot accepted")
	}
}

func TestResidualOnSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a0 := NewSPD(32, rng)
	l := a0.Clone()
	if err := Serial(l); err != nil {
		t.Fatal(err)
	}
	if r := Residual(l, a0); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
}

// Every interpreter must produce a bit-identical factor: the kernels apply
// the same per-element operations in the same order.
func TestAllVariantsAgree(t *testing.T) {
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 3})
	defer pool.Close()
	rng := rand.New(rand.NewSource(2))
	a0 := NewSPD(64, rng)

	ref := a0.Clone()
	if err := tiledSerial(ref, 8); err != nil {
		t.Fatal(err)
	}
	if r := Residual(ref, a0); r > 1e-9 {
		t.Fatalf("tiled-serial residual %g", r)
	}

	type driver struct {
		name string
		run  func(x *matrix.Dense, base int) error
	}
	drivers := []driver{{"OpenMP", func(x *matrix.Dense, base int) error {
		return forkJoin(x, base, pool)
	}}}
	for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC, core.NonBlockingCnC} {
		drivers = append(drivers, driver{v.String(), func(x *matrix.Dense, base int) error {
			_, err := runCnC(x, base, 3, v, nil)
			return err
		}})
	}
	for _, d := range drivers {
		for _, base := range []int{8, 16, 64} {
			x := a0.Clone()
			if err := d.run(x, base); err != nil {
				t.Fatalf("%s base=%d: %v", d.name, base, err)
			}
			want := a0.Clone()
			if err := tiledSerial(want, base); err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(x, want) {
				t.Fatalf("%s base=%d: factor differs from tiled serial (maxdiff %g)",
					d.name, base, matrix.MaxAbsDiff(x, want))
			}
		}
	}
}

// Element-wise Serial and the tiled algorithm agree on the lower triangle
// (the strict upper triangle is untouched input in both).
func TestTiledMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a0 := NewSPD(32, rng)
	el := a0.Clone()
	if err := Serial(el); err != nil {
		t.Fatal(err)
	}
	for _, base := range []int{1, 4, 32} {
		ti := a0.Clone()
		if err := tiledSerial(ti, base); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			for j := 0; j <= i; j++ {
				if math.Abs(ti.At(i, j)-el.At(i, j)) > 1e-9 {
					t.Fatalf("base=%d: L[%d][%d] %v vs %v", base, i, j, ti.At(i, j), el.At(i, j))
				}
			}
		}
	}
}

// Property: for random SPD matrices, the CnC factor reconstructs A.
func TestFactorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a0 := NewSPD(16, rng)
		l := a0.Clone()
		if _, err := runCnC(l, 4, 2, core.NativeCnC, nil); err != nil {
			return false
		}
		return Residual(l, a0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if err := tiledSerial(matrix.New(4, 6), 2); err == nil {
		t.Error("non-square accepted")
	}
	if err := tiledSerial(NewSPD(16, rng), 0); err == nil {
		t.Error("base 0 accepted")
	}
}

// Every interpreter must surface the non-SPD error: the serial and
// fork-join walks stop at it, the CnC variants fail the graph.
func TestCnCPropagatesFactorError(t *testing.T) {
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 2})
	defer pool.Close()
	zero := func() *matrix.Dense { return matrix.NewSquare(16) } // first pivot fails
	if err := tiledSerial(zero(), 4); err == nil {
		t.Fatal("serial: zero matrix factored without error")
	}
	if err := forkJoin(zero(), 4, pool); err == nil {
		t.Fatal("fork-join: zero matrix factored without error")
	}
	if _, err := runCnC(zero(), 4, 2, core.NativeCnC, nil); err == nil {
		t.Fatal("CnC: zero matrix factored without error")
	}
}

// Task census: tetrahedral number of tasks T(T+1)(T+2)/6 ... counted
// directly: Σ_K (1 + (T-1-K) + (T-K)(T-K-1)/2 + (T-K-1)) tiles.
func TestTaskCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewSPD(64, rng)
	stats, err := runCnC(a, 8, 2, core.ManualCnC, nil)
	if err != nil {
		t.Fatal(err)
	}
	tiles := 8
	want := 0
	for k := 0; k < tiles; k++ {
		r := tiles - k - 1        // rows below the diagonal tile
		want += 1 + r + r*(r+1)/2 // potrf + trsms + updates
	}
	if stats.BaseTasks != want {
		t.Fatalf("BaseTasks = %d, want %d", stats.BaseTasks, want)
	}
	if stats.Aborts != 0 {
		t.Fatalf("manual variant aborted %d times", stats.Aborts)
	}
}

package ge

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

// runGE runs gep.GE on a under one execution model: Serial_RDP, OpenMP on
// pool, or a CnC variant on workers workers.
func runGE(a *matrix.Dense, base int, v core.Variant, workers int, pool *forkjoin.Pool) error {
	f, err := gep.GE.Flow(a, base)
	switch {
	case err != nil:
	case v == core.SerialRDP:
		err = f.Serial()
	case v == core.OMPTasking:
		err = f.ForkJoin(context.Background(), pool)
	default:
		_, err = f.Run(context.Background(), "ge", workers, v, nil)
	}
	return err
}

// End-to-end: every execution of gep.GE must actually solve linear systems.
func TestSolveSystemAllVariants(t *testing.T) {
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 2})
	defer pool.Close()
	rng := rand.New(rand.NewSource(7))
	type driver struct {
		name string
		run  func(*matrix.Dense) error
	}
	drivers := []driver{
		{"Serial", func(a *matrix.Dense) error { kernels.GESerial(a); return nil }},
	}
	for _, v := range []core.Variant{core.SerialRDP, core.OMPTasking, core.NativeCnC, core.TunerCnC, core.ManualCnC} {
		drivers = append(drivers, driver{v.String(), func(a *matrix.Dense) error { return runGE(a, 4, v, 2, pool) }})
	}
	for _, d := range drivers {
		a, want := NewSystem(32, rng)
		if err := d.run(a); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		got, err := BackSubstitute(a)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("%s: x[%d] = %v, want %v", d.name, i, got[i], want[i])
			}
		}
	}
}

// Property: for random diagonally dominant systems of random power-of-two
// sizes and random base sizes, the CnC solution solves the system.
func TestSolveProperty(t *testing.T) {
	f := func(seed int64, sizeExp, baseExp uint8) bool {
		n := 8 << (sizeExp % 3)               // 8, 16, 32
		base := 1 << (baseExp % 4)            // 1, 2, 4, 8
		rng := rand.New(rand.NewSource(seed)) // deterministic per case
		a, want := NewSystem(n, rng)
		if err := runGE(a, base, core.NativeCnC, 2, nil); err != nil {
			return false
		}
		got, err := BackSubstitute(a)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestBackSubstituteErrors(t *testing.T) {
	if _, err := BackSubstitute(matrix.New(3, 4)); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := BackSubstitute(matrix.New(1, 1)); err == nil {
		t.Error("too-small system accepted")
	}
	z := matrix.NewSquare(3) // zero pivots
	if _, err := BackSubstitute(z); err == nil {
		t.Error("zero pivot not reported")
	}
}

// The CnC determinism guarantee: identical DP tables for any worker count.
func TestCnCDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := matrix.NewSquare(32)
	orig.FillDiagonallyDominant(rng)
	ref := orig.Clone()
	if err := runGE(ref, 4, core.NativeCnC, 1, nil); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		x := orig.Clone()
		if err := runGE(x, 4, core.NativeCnC, workers, nil); err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(x, ref) {
			t.Fatalf("workers=%d: nondeterministic result", workers)
		}
	}
}

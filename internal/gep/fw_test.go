package gep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/graphgen"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

func randomGraph(n int, seed int64) *matrix.Dense {
	return graphgen.Random(graphgen.Config{N: n, Density: 0.35, MaxWeight: 9, Infinity: graphgen.Infinity},
		rand.New(rand.NewSource(seed)))
}

// The ring graph has a closed-form APSP solution: check every execution of
// FW against the oracle, not just against each other.
func TestRingOracle(t *testing.T) {
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 2})
	defer pool.Close()
	const n = 32
	cncRun := func(v core.Variant) func(*matrix.Dense) error {
		return func(d *matrix.Dense) error {
			_, err := runCnC(FW, d, 4, 2, v, nil)
			return err
		}
	}
	for _, run := range []struct {
		name string
		fn   func(*matrix.Dense) error
	}{
		{"Serial", func(d *matrix.Dense) error { kernels.FWSerial(d); return nil }},
		{"Serial_RDP", func(d *matrix.Dense) error { return serial(FW, d, 4) }},
		{"OpenMP", func(d *matrix.Dense) error { return forkJoin(FW, d, 4, pool) }},
		{"CnC", cncRun(core.NativeCnC)},
		{"CnC_manual", cncRun(core.ManualCnC)},
	} {
		d := graphgen.Ring(n, graphgen.Infinity)
		if err := run.fn(d); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if want := graphgen.RingDistance(n, i, j); d.At(i, j) != want {
					t.Fatalf("%s: dist(%d,%d) = %v, want %v", run.name, i, j, d.At(i, j), want)
				}
			}
		}
	}
}

// Property: CnC FW output satisfies the triangle inequality and matches the
// serial loop, for random graphs, sizes, densities and base sizes.
func TestFWProperty(t *testing.T) {
	f := func(seed int64, baseExp uint8) bool {
		n := 16
		base := 1 << (baseExp % 5) // 1..16
		d := randomGraph(n, seed)
		ref := d.Clone()
		kernels.FWSerial(ref)
		if _, err := runCnC(FW, d, base, 3, core.TunerCnC, nil); err != nil {
			return false
		}
		if !matrix.Equal(d, ref) {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if d.At(i, j) > d.At(i, k)+d.At(k, j) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseGraphAllFinite(t *testing.T) {
	d := graphgen.Random(graphgen.Config{N: 16, Density: 1, MaxWeight: 5, Infinity: graphgen.Infinity},
		rand.New(rand.NewSource(4)))
	kernels.FWSerial(d)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if d.At(i, j) >= graphgen.Infinity {
				t.Fatalf("complete graph left dist(%d,%d) infinite", i, j)
			}
		}
	}
}

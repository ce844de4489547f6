//go:build !race

package chol

import (
	"math/rand"
	"testing"

	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
)

// Full-run allocation budgets, the Cholesky counterpart of the gates in
// internal/gep: recycled instances and dispatch envelopes and cell-held
// items keep a complete tiled factorisation's allocation count at graph
// construction plus a share of a slab per tile. The CnC budgets are ~1.25× the measurements at n=128/base=16
// (8×8 tiles); see internal/gep/alloc_test.go for the rationale and the
// -race exclusion.
func TestRunAllocBudget(t *testing.T) {
	const n, base, workers = 128, 16, 4
	budget := map[core.Variant]float64{
		core.NativeCnC:  100, // measured ~80
		core.TunerCnC:   90,  // measured ~69–70
		core.ManualCnC:  90,  // measured ~69
		core.OMPTasking: 100, // measured ~14
	}
	pool := forkjoin.NewPool(forkjoin.Config{Workers: workers})
	defer pool.Close()
	src := NewSPD(n, rand.New(rand.NewSource(1)))

	for _, v := range core.ParallelVariants {
		v := v
		run := func() {
			a := src.Clone()
			if v == core.OMPTasking {
				if err := forkJoin(a, base, pool); err != nil {
					t.Fatal(err)
				}
				return
			}
			if _, err := runCnC(a, base, workers, v, nil); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools and the runtime
		allocs := testing.AllocsPerRun(3, run)
		t.Logf("CH/%s: %.0f allocs/run (budget %.0f)", v, allocs, budget[v])
		if allocs > budget[v] {
			t.Errorf("CH/%s: %.0f allocs/run exceeds budget %.0f — a recycled dispatch path regressed", v, allocs, budget[v])
		}
	}
}

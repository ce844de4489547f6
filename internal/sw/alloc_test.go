//go:build !race

package sw

import (
	"testing"

	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
)

// Full-run allocation budgets, the SW counterpart of the gates in
// internal/gep: recycled instances and dispatch envelopes and cell-held
// items keep a complete wavefront run's allocation count at graph
// construction plus a share of a slab per tile. The CnC budgets are ~1.25× the measurements at n=256/base=16
// (16×16 tiles); see internal/gep/alloc_test.go for the rationale and the
// -race exclusion.
func TestRunAllocBudget(t *testing.T) {
	const n, base, workers = 256, 16, 4
	budget := map[core.Variant]float64{
		core.NativeCnC:  90,  // measured ~66–70
		core.TunerCnC:   90,  // measured ~67–70
		core.ManualCnC:  90,  // measured ~70
		core.OMPTasking: 100, // measured ~15
	}
	pool := forkjoin.NewPool(forkjoin.Config{Workers: workers})
	defer pool.Close()
	p := problem(n, 1)

	for _, v := range core.ParallelVariants {
		v := v
		run := func() {
			h := p.NewTable()
			if v == core.OMPTasking {
				if _, err := p.forkJoin(h, base, pool); err != nil {
					t.Fatal(err)
				}
				return
			}
			if _, _, err := p.runCnC(h, base, workers, v); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools and the runtime
		allocs := testing.AllocsPerRun(3, run)
		t.Logf("SW/%s: %.0f allocs/run (budget %.0f)", v, allocs, budget[v])
		if allocs > budget[v] {
			t.Errorf("SW/%s: %.0f allocs/run exceeds budget %.0f — a recycled dispatch path regressed", v, allocs, budget[v])
		}
	}
}

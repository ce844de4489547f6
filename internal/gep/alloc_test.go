//go:build !race

package gep

import (
	"testing"

	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/matrix"
)

// Full-run allocation budgets: with dispatch envelopes, dependency latches,
// burst buffers and spawn frames pooled, dependencies declared into pooled
// scratch buffers, and items held as slab-carved cells, a complete run's
// allocation bill is one-time graph construction plus, per tile, a share of
// a cell slab, a wait-list slot and (Native) the panic record of its one
// abort — not per-task scheduling traffic. The CnC budgets are ~1.25× the
// measurements at n=128/base=16 (8×8 tiles; 204 GE and 512 FW tiles), so a
// regression to allocating per abort or per dependency — closures, a label
// and boxed keys on the miss path cost ~10 objects per abort — trips the
// gate while schedule variance (which only moves the abort count, at most
// one per tile) does not. Excluded from -race builds, like the cnc
// gates: there sync.Pool deliberately drops Puts and no pooled path holds a
// budget.
func TestRunAllocBudget(t *testing.T) {
	const n, base, workers = 128, 16, 4
	budget := map[string]float64{
		"GE/" + core.NativeCnC.String():  1450, // measured ~1170
		"GE/" + core.TunerCnC.String():   430,  // measured ~340
		"GE/" + core.ManualCnC.String():  1250, // measured ~1000
		"GE/" + core.OMPTasking.String(): 200,  // measured ~50
		"FW/" + core.NativeCnC.String():  3950, // measured ~3160
		"FW/" + core.TunerCnC.String():   2400, // measured ~1920
		"FW/" + core.ManualCnC.String():  3350, // measured ~2680
		"FW/" + core.OMPTasking.String(): 300,  // measured ~83
	}
	pool := forkjoin.NewPool(forkjoin.Config{Workers: workers})
	defer pool.Close()

	type runCase struct {
		name string
		run  func()
	}
	var cases []runCase
	mk := func(name string, alg Algorithm, input func() *matrix.Dense) {
		for _, v := range core.ParallelVariants {
			v := v
			cases = append(cases, runCase{name + "/" + v.String(), func() {
				x := input()
				if v == core.OMPTasking {
					if err := forkJoin(alg, x, base, pool); err != nil {
						t.Fatal(err)
					}
					return
				}
				if _, err := runCnC(alg, x, base, workers, v, nil); err != nil {
					t.Fatal(err)
				}
			}})
		}
	}
	mk("GE", GE, func() *matrix.Dense { return geInput(n, 1) })
	mk("FW", FW, func() *matrix.Dense { return randomGraph(n, 1) })

	for _, c := range cases {
		c.run() // warm the pools and the runtime
		allocs := testing.AllocsPerRun(3, c.run)
		t.Logf("%s: %.0f allocs/run (budget %.0f)", c.name, allocs, budget[c.name])
		if max, ok := budget[c.name]; !ok {
			t.Errorf("%s: no budget declared", c.name)
		} else if allocs > max {
			t.Errorf("%s: %.0f allocs/run exceeds budget %.0f — a pooled dispatch path regressed", c.name, allocs, max)
		}
	}
}

//go:build !race

package gep

import (
	"testing"

	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/matrix"
)

// Full-run allocation budgets: with dispatch envelopes, dependency latches,
// burst buffers and spawn frames pooled, step instances carved from slabs
// and recycled through their collection's free list, dependencies kept as
// the numbers of their cells, items held in the Flow's one array of
// numbered cells, and wait lists chained through the waiting instances, a
// complete run's allocation bill is one-time graph construction plus, per
// tile, a share of an instance slab — not per-task scheduling traffic. The
// CnC budgets are ~1.25× the measurements at n=128/base=16 (8×8 tiles; 204 GE and 512 FW
// tiles), so a regression to one allocation per instance (GE's 204 base
// instances alone would cross the Native budget), per abort or per
// dependency trips the gate while schedule variance (which only moves the
// abort count and the instances live at once) does not. FW's Cube instances
// read more than four tiles: each carved instance allocates its overflow
// read set once. Excluded from -race builds, like the cnc gates: there
// sync.Pool deliberately drops Puts and no pooled path holds a budget.
func TestRunAllocBudget(t *testing.T) {
	const n, base, workers = 128, 16, 4
	budget := map[string]float64{
		"GE/" + core.NativeCnC.String():  180, // measured ~144
		"GE/" + core.TunerCnC.String():   190, // measured ~145–151
		"GE/" + core.ManualCnC.String():  190, // measured ~150–152
		"GE/" + core.OMPTasking.String(): 200, // measured ~30
		"FW/" + core.NativeCnC.String():  405, // measured ~294–322
		"FW/" + core.TunerCnC.String():   400, // measured ~288–317
		"FW/" + core.ManualCnC.String():  465, // measured ~370
		"FW/" + core.OMPTasking.String(): 300, // measured ~30
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
			t.Errorf("%s: %.0f allocs/run exceeds budget %.0f — a recycled dispatch path regressed", c.name, allocs, max)
		}
	}
}

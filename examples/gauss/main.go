// Gauss: solve a dense linear system with recursive divide-and-conquer
// Gaussian elimination in every execution model the paper compares, verify
// the solutions, and report runtime activity — the paper's running example
// as an application.
//
//	go run ./examples/gauss [-n 512] [-base 32] [-workers 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/ge"
	"dpflow/internal/gep"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

func main() {
	n := flag.Int("n", 512, "system size (power of two; n-1 unknowns)")
	base := flag.Int("base", 32, "recursive base size")
	workers := flag.Int("workers", 4, "runtime workers")
	flag.Parse()

	rng := rand.New(rand.NewSource(7))
	system, want := ge.NewSystem(*n, rng)
	fmt.Printf("solving a %d-unknown diagonally dominant system (n=%d, base=%d, workers=%d)\n\n",
		*n-1, *n, *base, *workers)

	pool := forkjoin.NewPool(forkjoin.Config{Workers: *workers})
	defer pool.Close()

	// solve runs one execution of gep.GE on a fresh copy of the system,
	// back-substitutes and reports the error against the known solution.
	solve := func(name string, run func(a *matrix.Dense) (gep.CnCStats, error)) {
		a := system.Clone()
		start := time.Now()
		stats, err := run(a)
		elapsed := time.Since(start)
		if err != nil {
			log.Fatalf("%v: %v", name, err)
		}
		x, err := ge.BackSubstitute(a)
		if err != nil {
			log.Fatalf("%v: %v", name, err)
		}
		maxErr := 0.0
		for i := range want {
			if e := math.Abs(x[i] - want[i]); e > maxErr {
				maxErr = e
			}
		}
		extra := ""
		if stats.BaseTasks > 0 {
			extra = fmt.Sprintf("  (%d base tasks, %d aborts, %d triggered)",
				stats.BaseTasks, stats.Aborts, stats.TriggeredRuns)
		}
		fmt.Printf("%-16s %10v   max |x-x*| = %.2e%s\n", name, elapsed.Round(time.Microsecond), maxErr, extra)
	}
	// The solved matrix is needed here, so each execution runs gep.GE's Flow
	// on a fresh copy through the registry's variant switch: the serial
	// recursion, the fork-join pool, and the CnC data-flow program in three
	// schedules — after the serial loop.
	solve(core.SerialLoop.String(), func(a *matrix.Dense) (gep.CnCStats, error) {
		kernels.GESerial(a)
		return gep.CnCStats{}, nil
	})
	for _, v := range []core.Variant{core.SerialRDP, core.OMPTasking, core.NativeCnC, core.TunerCnC, core.ManualCnC} {
		solve(v.String(), func(a *matrix.Dense) (gep.CnCStats, error) {
			f, err := gep.GE.Flow(a, *base)
			if err != nil {
				return gep.CnCStats{}, err
			}
			return bench.RunFlow(context.Background(), f, "ge", v, bench.RunOpts{Workers: *workers, Pool: pool})
		})
	}
}

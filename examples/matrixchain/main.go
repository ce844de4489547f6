// Matrixchain: optimal matrix-chain parenthesisation — a DP whose tiles
// depend on every tile between them and the diagonal, unlike the paper's
// three benchmarks. The example solves a random chain in every execution
// model and prints the dependency fan-in profile that distinguishes this
// problem class.
//
//	go run ./examples/matrixchain [-n 256] [-base 32] [-workers 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/matrix"
	"dpflow/internal/par"
)

func main() {
	n := flag.Int("n", 256, "chain length (power of two)")
	base := flag.Int("base", 32, "tile size")
	workers := flag.Int("workers", 4, "runtime workers")
	flag.Parse()

	rng := rand.New(rand.NewSource(21))
	p := par.RandomProblem(*n, 50, rng)
	fmt.Printf("optimal parenthesisation of a %d-matrix chain (dims <= 50), base=%d, workers=%d\n\n",
		*n, *base, *workers)

	ref := p.NewTable()
	want := p.Serial(ref)
	fmt.Printf("%-16s cost %.0f\n", "serial", want)

	pool := forkjoin.NewPool(forkjoin.Config{Workers: *workers})
	defer pool.Close()
	// solve fills a fresh table with one execution of the recurrence and
	// checks the optimal cost. par is not in the benchmark registry, but its
	// Flow runs through the registry's variant switch all the same: the
	// serial recursion, the fork-join pool, and the CnC data-flow program in
	// three schedules.
	solve := func(name string, run func(m *matrix.Dense) (float64, error)) {
		start := time.Now()
		got, err := run(p.NewTable())
		if err != nil {
			log.Fatalf("%v: %v", name, err)
		}
		status := "ok"
		if got != want {
			status = fmt.Sprintf("MISMATCH (want %.0f)", want)
		}
		fmt.Printf("%-16s cost %.0f in %10v   %s\n", name, got, time.Since(start).Round(time.Microsecond), status)
	}
	for _, v := range []core.Variant{core.SerialRDP, core.OMPTasking, core.NativeCnC, core.TunerCnC, core.ManualCnC} {
		solve(v.String(), func(m *matrix.Dense) (float64, error) {
			f, err := p.Flow(m, *base)
			if err == nil {
				_, err = bench.RunFlow(context.Background(), f, "par", v, bench.RunOpts{Workers: *workers, Pool: pool})
			}
			return m.At(1, *n), err
		})
	}

	tiles := *n / *base
	fmt.Printf("\ndependency fan-in by tile gap (tiles=%d per side):\n", tiles)
	for gap := 0; gap < tiles; gap++ {
		fanIn := 2 * gap
		fmt.Printf("  gap %2d: %2d tiles in the band, %2d pre-declared deps each\n",
			gap, tiles-gap, fanIn)
	}
	fmt.Println("\ncompare with SW's constant fan-in of 3: the parenthesis problem is")
	fmt.Println("where dependency-list tuners earn (or lose) their keep.")
}

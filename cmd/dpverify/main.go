// Command dpverify runs the full correctness matrix on the host: every
// registered benchmark (bench.All()) × every variant × several base sizes,
// each run built by NewInstance, executed by Instance.Run and checked
// bit-for-bit by Instance.Verify against its serial reference. It is the
// quick smoke test for anyone adopting the library ("do all execution
// models really agree on my machine?").
//
// Usage:
//
//	dpverify [-n 256] [-workers 4] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/matrix"
	"dpflow/internal/par"
)

func main() {
	n := flag.Int("n", 256, "problem size (power of two)")
	workers := flag.Int("workers", 4, "runtime workers")
	seed := flag.Int64("seed", 1, "input generator seed")
	flag.Parse()

	pool := forkjoin.NewPool(forkjoin.Config{Workers: *workers})
	defer pool.Close()

	variants := []core.Variant{core.SerialRDP, core.OMPTasking,
		core.NativeCnC, core.TunerCnC, core.ManualCnC, core.NonBlockingCnC}
	bases := []int{*n / 32, *n / 8, *n / 2}

	failures := 0
	report := func(name string, v core.Variant, base int, err error, elapsed time.Duration) {
		status := "ok"
		if err != nil {
			status = "ERROR: " + err.Error()
			failures++
		}
		fmt.Printf("%-8s %-16s base=%-5d %10v  %s\n", name, v, base, elapsed.Round(time.Microsecond), status)
	}

	fmt.Printf("dpverify: n=%d workers=%d seed=%d (%d variants x %d bases x (%s, par))\n\n",
		*n, *workers, *seed, len(variants), len(bases), bench.NameList())
	for _, b := range bench.All() {
		for _, v := range variants {
			for _, base := range bases {
				in, err := b.NewInstance(*n, base, *seed)
				start := time.Now()
				if err == nil {
					_, err = in.Run(context.Background(), v, bench.RunOpts{Workers: *workers, Pool: pool})
				}
				elapsed := time.Since(start)
				if err == nil {
					err = in.Verify()
				}
				report(b.Name(), v, base, err, elapsed)
			}
		}
	}

	// par is the one benchmark wired by hand: it is not registered, because
	// Benchmark.Flops/MaxMissBound/StreamLines are per-kind constants and
	// the parenthesis problem's tile cost grows with its gap (ROADMAP item
	// 5). Its three drivers are called directly.
	parP := par.RandomProblem(*n, 40, rand.New(rand.NewSource(*seed)))
	parRef := parP.Serial(parP.NewTable())
	parCheck := func(v core.Variant, run func(m *matrix.Dense, base int) (float64, error)) {
		for _, base := range bases {
			start := time.Now()
			cost, err := run(parP.NewTable(), base)
			elapsed := time.Since(start)
			if err == nil && cost != parRef {
				err = fmt.Errorf("cost %g, want %g", cost, parRef)
			}
			report("par", v, base, err, elapsed)
		}
	}
	parCheck(core.SerialRDP, parP.RDPSerial)
	parCheck(core.OMPTasking, func(m *matrix.Dense, base int) (float64, error) { return parP.ForkJoin(m, base, pool) })
	for _, v := range variants {
		if v.IsCnC() {
			parCheck(v, func(m *matrix.Dense, base int) (float64, error) {
				cost, _, err := parP.RunCnC(m, base, *workers, v)
				return cost, err
			})
		}
	}

	if failures > 0 {
		fmt.Printf("\n%d FAILURES\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall checks passed: every execution model agrees bit-for-bit")
}

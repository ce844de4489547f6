// Command dpverify runs the full correctness matrix on the host: every
// registered benchmark (bench.All()) and the parenthesis problem × every
// variant × several base sizes, each run through the registry's one variant
// switch and checked bit-for-bit against its serial reference. The runs are
// checked, not only compared — each goes through bench.Check with Detect,
// the envelope every checked run in the repository uses: every fork-join
// row runs under determinacy-race detection and every Native/Tuner/Manual
// CnC row under dataflow-discipline checking (write-once puts, exact
// get-counts), so a pass says more than "this schedule agreed" — no
// schedule of the same program could have computed anything else. A
// detection fails its row, and so does a detector that saw nothing. It is
// the smoke test for anyone adopting the library ("do all execution models
// really agree on my machine?"). About half a minute at any n: the
// smallest base is always n/32, and at 32 tiles a side the checkers'
// per-item ledgers, not the kernels, are the cost.
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

	ctx := context.Background()
	failures, checked := 0, 0
	// row runs one variant at one base through the checked envelope: its
	// execution model's detector armed, the result verified against the
	// serial reference. Every row but the serial reference and NonBlocking
	// (no get-counts to check) runs under a detector.
	row := func(name string, v core.Variant, base int, in bench.Instance, err error) {
		var c bench.Checked
		if err == nil {
			c = bench.Check{Detect: true}.Run(ctx, in, v, bench.RunOpts{Workers: *workers, Pool: pool})
			err = c.Err
		}
		status := "ok"
		switch {
		case err != nil:
			status = "ERROR: " + err.Error()
			failures++
		case v != core.SerialRDP && v != core.NonBlockingCnC:
			checked++
		}
		fmt.Printf("%-8s %-16s base=%-5d %10v  %s\n", name, v, base, c.Wall.Round(time.Microsecond), status)
	}

	fmt.Printf("dpverify: n=%d workers=%d seed=%d (%d variants x %d bases x (%s, par))\n\n",
		*n, *workers, *seed, len(variants), len(bases), bench.NameList())
	for _, b := range bench.All() {
		for _, v := range variants {
			for _, base := range bases {
				in, err := b.NewInstance(*n, base, *seed)
				row(b.Name(), v, base, in, err)
			}
		}
	}

	// par is the one benchmark outside the registry: Benchmark's per-kind
	// cost closed forms cannot express a tile cost that grows with the gap
	// (ROADMAP item 10). Its Flow runs as an Instance checked against the
	// serial loop's table.
	parP := par.RandomProblem(*n, 40, rand.New(rand.NewSource(*seed)))
	parRef := parP.NewTable()
	parP.Serial(parRef)
	for _, v := range variants {
		for _, base := range bases {
			m := parP.NewTable()
			f, err := parP.Flow(m, base)
			row("par", v, base, bench.FlowInstance("par", f, m, parRef), err)
		}
	}

	if failures > 0 {
		fmt.Printf("\n%d FAILURES\n", failures)
		os.Exit(1)
	}
	fmt.Printf("\nall checks passed: every execution model agrees bit-for-bit; %d rows ran checked (fork-join race-free, CnC discipline-clean)\n", checked)
}

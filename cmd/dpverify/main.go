// Command dpverify runs the full correctness matrix on the host: every
// registered benchmark (bench.All()) and the parenthesis problem × every
// variant × several base sizes, each run through the registry's one variant
// switch and checked bit-for-bit against its serial reference. The runs are
// checked, not only compared: every fork-join row runs under
// determinacy-race detection and every Native/Tuner/Manual CnC row under
// dataflow-discipline checking (write-once puts, exact get-counts), so a
// pass says more than "this schedule agreed" — no schedule of the same
// program could have computed anything else. A detection fails its row,
// and so does a detector that saw nothing. It is the smoke test for anyone
// adopting the library ("do all execution models really agree on my
// machine?"). About half a minute at any n: the smallest base is always
// n/32, and at 32 tiles a side the checkers' per-item ledgers, not the
// kernels, are the cost.
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
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
	"dpflow/internal/matrix"
	"dpflow/internal/par"
)

// arm puts one row under its execution model's detector and returns the
// verdict to read once the run has verified: a detection, or a detector
// that observed nothing (a clean report from a check that never ran is not
// a pass). It returns nil for the rows that have no detector: the serial
// reference, and NonBlocking, which declares no get-counts to check.
func arm(v core.Variant, opts *bench.RunOpts) func() error {
	switch v {
	case core.OMPTasking:
		det := determinacy.NewDetector()
		opts.Pool.WithRaceDetection(det)
		return func() error {
			if err := det.Err(); err != nil {
				return fmt.Errorf("determinacy race: %w", err)
			}
			if st := det.Stats(); st.Accesses == 0 {
				return fmt.Errorf("race detection is vacuous: %+v", st)
			}
			return nil
		}
	case core.NativeCnC, core.TunerCnC, core.ManualCnC:
		var dc *determinacy.DisciplineChecker
		opts.Tune = func(g *cnc.Graph) {
			// A fresh checker per graph: each ledger describes one run.
			dc = determinacy.NewDisciplineChecker()
			g.WithDisciplineCheck(dc)
		}
		return func() error {
			if dc == nil {
				return fmt.Errorf("discipline checking is vacuous: the run built no graph")
			}
			if err := dc.Err(); err != nil {
				return fmt.Errorf("discipline violation: %w", err)
			}
			if st := dc.Stats(); st.Puts == 0 || st.Releases == 0 {
				return fmt.Errorf("discipline checking is vacuous: %+v", st)
			}
			return nil
		}
	}
	return nil
}

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
	// row runs one variant at one base under its detector: run executes it,
	// verify checks the result against the serial reference.
	row := func(name string, v core.Variant, base int, run func(bench.RunOpts) error, verify func() error) {
		opts := bench.RunOpts{Workers: *workers, Pool: pool}
		verdict := arm(v, &opts)
		start := time.Now()
		err := run(opts)
		elapsed := time.Since(start)
		if err == nil {
			err = verify()
		}
		if err == nil && verdict != nil {
			err = verdict()
			checked++
		}
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
				row(b.Name(), v, base, func(opts bench.RunOpts) error {
					if err != nil {
						return err
					}
					_, err := in.Run(ctx, v, opts)
					return err
				}, func() error { return in.Verify() })
			}
		}
	}

	// par is the one benchmark outside the registry: Benchmark's per-kind
	// cost closed forms cannot express a tile cost that grows with the gap
	// (ROADMAP item 4). Its Flow runs through the registry's variant switch.
	parP := par.RandomProblem(*n, 40, rand.New(rand.NewSource(*seed)))
	parRef := parP.NewTable()
	parP.Serial(parRef)
	for _, v := range variants {
		for _, base := range bases {
			m := parP.NewTable()
			row("par", v, base, func(opts bench.RunOpts) error {
				f, err := parP.Flow(m, base)
				if err == nil {
					_, err = bench.RunFlow(ctx, f, "par", v, opts)
				}
				return err
			}, func() error {
				if err := matrix.Diff(m, parRef); err != nil {
					return fmt.Errorf("table disagrees with the serial loop: %w", err)
				}
				return nil
			})
		}
	}

	if failures > 0 {
		fmt.Printf("\n%d FAILURES\n", failures)
		os.Exit(1)
	}
	fmt.Printf("\nall checks passed: every execution model agrees bit-for-bit; %d rows ran checked (fork-join race-free, CnC discipline-clean)\n", checked)
}

// Alignment: Smith-Waterman local alignment of two synthetic DNA sequences
// in both execution models. This is the paper's wavefront benchmark: the
// data-flow version pipelines anti-diagonals that the fork-join joins would
// serialise, which the printed utilisation traces make visible.
//
//	go run ./examples/alignment [-n 1024] [-base 64] [-workers 4]
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
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
	"dpflow/internal/seq"
	"dpflow/internal/sw"
)

func main() {
	n := flag.Int("n", 1024, "sequence length (power of two)")
	base := flag.Int("base", 64, "tile size")
	workers := flag.Int("workers", 4, "runtime workers")
	mutation := flag.Float64("mutation", 0.15, "mutation rate between the two sequences")
	flag.Parse()

	rng := rand.New(rand.NewSource(11))
	a := seq.RandomDNA(*n, rng)
	b := seq.Mutate(a, *mutation, seq.DNAAlphabet, rng)
	p := &sw.Problem{A: a, B: b, Scoring: kernels.DefaultScoring}

	fmt.Printf("aligning two %d-base sequences (%.0f%% mutated copy), base=%d, workers=%d\n\n",
		*n, 100**mutation, *base, *workers)

	refScore := p.Linear() // O(n)-space reference, the paper's optimisation
	fmt.Printf("%-16s score %.0f (O(n) space reference)\n", "linear-space", refScore)

	pool := forkjoin.NewPool(forkjoin.Config{Workers: *workers})
	defer pool.Close()
	// align fills a fresh table with one execution of the recurrence and
	// checks its score: the serial loop, then the problem's Flow through the
	// registry's variant switch — the serial recursion, the fork-join pool,
	// and the CnC data-flow program in three schedules.
	align := func(name string, run func(h *matrix.Dense) (float64, error)) {
		start := time.Now()
		score, err := run(p.NewTable())
		if err != nil {
			log.Fatalf("%v: %v", name, err)
		}
		status := "ok"
		if score != refScore {
			status = fmt.Sprintf("MISMATCH (want %.0f)", refScore)
		}
		fmt.Printf("%-16s score %.0f in %10v   %s\n", name, score, time.Since(start).Round(time.Microsecond), status)
	}
	align(core.SerialLoop.String(), func(h *matrix.Dense) (float64, error) { return p.Serial(h), nil })
	for _, v := range []core.Variant{core.SerialRDP, core.OMPTasking, core.NativeCnC, core.TunerCnC, core.ManualCnC} {
		align(v.String(), func(h *matrix.Dense) (float64, error) {
			f, err := p.Flow(h, *base)
			if err == nil {
				_, err = bench.RunFlow(context.Background(), f, "sw", v, bench.RunOpts{Workers: *workers, Pool: pool})
			}
			return kernels.MaxScore(h), err
		})
	}

	// Show the wavefront structure: tiles per anti-diagonal.
	tiles := *n / *base
	fmt.Printf("\nwavefront width by anti-diagonal (tiles=%d per side):\n", tiles)
	for d := 0; d < 2*tiles-1; d++ {
		w := d + 1
		if d >= tiles {
			w = 2*tiles - 1 - d
		}
		if d < 4 || d == tiles-1 || d > 2*tiles-4 {
			fmt.Printf("  diagonal %3d: %d tiles ready together\n", d, w)
		} else if d == 4 {
			fmt.Println("  ...")
		}
	}
	fmt.Println("\nfork-join joins cut across these diagonals; the data-flow runtime")
	fmt.Println("fires each tile the moment its three neighbours finish.")
}

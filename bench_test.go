// Benchmarks regenerating every table and figure of the paper's evaluation
// plus real-execution and ablation measurements.
//
//   - BenchmarkFig4..BenchmarkFig9 run the corresponding figure experiment
//     through the DAG + cost-model + discrete-event-scheduler pipeline. By
//     default they run at 1/4 linear scale for benchmarking hygiene; the
//     full paper-scale sweeps are produced by `go run ./cmd/dpbench -exp
//     figN` (and by these benches with -dpflow.fullscale).
//   - BenchmarkTable1 regenerates Table I with the cache simulator.
//   - BenchmarkReal and BenchmarkRealPar execute the actual runtimes
//     (goroutines) on the host.
//   - BenchmarkAblation* measure the design alternatives called out in
//     DESIGN.md (non-blocking gets, tag memoization).
package dpflow_test

import (
	"context"
	"flag"
	"math/rand"
	"testing"

	"dpflow/internal/bench"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/harness"
	"dpflow/internal/kernels"
	"dpflow/internal/machine"
	"dpflow/internal/matrix"
	"dpflow/internal/par"
	"dpflow/internal/seq"
)

var fullScale = flag.Bool("dpflow.fullscale", false, "run figure benchmarks at the paper's full problem sizes")

func figureOptions() harness.Options {
	if *fullScale {
		return harness.Options{MaxTiles: 256}
	}
	return harness.Options{Scale: 2, MaxTiles: 128}
}

func benchFigure(b *testing.B, id string) {
	exp, ok := harness.FigureByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	opts := figureOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunContext(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Panels) == 0 {
			b.Fatal("no panels")
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: GE execution times on EPYC-64.
func BenchmarkFig4(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5: GE execution times on SKYLAKE-192.
func BenchmarkFig5(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6: SW execution times on EPYC-64.
func BenchmarkFig6(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7: SW execution times on SKYLAKE-192.
func BenchmarkFig7(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8: FW-APSP execution times on EPYC-64.
func BenchmarkFig8(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9: FW-APSP execution times on SKYLAKE-192.
func BenchmarkFig9(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkTable1 regenerates Table I (estimated/actual cache-miss ratios)
// at 1/32 geometry; dpbench -exp table1 -tscale N produces larger scales.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable1Context(context.Background(), 32)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- real executions of the actual runtimes ---

func realSizes(b *testing.B) (n, base, workers int) {
	if testing.Short() {
		return 128, 16, 4
	}
	return 512, 64, 4
}

// BenchmarkReal executes every registered benchmark on the host with every
// parallel variant, through the registry: a fresh instance per iteration
// (built, with its serial reference, outside the timer), one Instance.Run.
func BenchmarkReal(b *testing.B) {
	n, base, workers := realSizes(b)
	pool := forkjoin.NewPool(forkjoin.Config{Workers: workers})
	defer pool.Close()
	for _, bm := range bench.All() {
		for _, v := range core.ParallelVariants {
			b.Run(bm.Name()+"/"+v.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					in, err := bm.NewInstance(n, base, 1)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := in.Run(context.Background(), v, bench.RunOpts{Workers: workers, Pool: pool}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- ablations ---

// runGE runs gep.GE on x under a CnC variant; tune, when non-nil, receives
// the built graph.
func runGE(x *matrix.Dense, base, workers int, v core.Variant, tune func(*cnc.Graph)) (gep.CnCStats, error) {
	f, err := gep.GE.Flow(x, base)
	if err != nil {
		return gep.CnCStats{}, err
	}
	return f.Run(context.Background(), "ge", workers, v, tune)
}

// BenchmarkAblationNonBlockingGet compares the blocking-get CnC program
// with the non-blocking (poll and re-put) variant the paper found
// profitable only for small block sizes.
func BenchmarkAblationNonBlockingGet(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	orig := matrix.NewSquare(256)
	orig.FillDiagonallyDominant(rng)
	for _, base := range []int{8, 64} {
		for _, v := range []core.Variant{core.NativeCnC, core.NonBlockingCnC} {
			b.Run(v.String()+"/base="+itoa(base), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					x := orig.Clone()
					b.StartTimer()
					if _, err := runGE(x, base, 4, v, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGE1KNativeCnC is the scheduler acceptance benchmark: GE at
// n=1024 under the Native CnC schedule, reporting the dispatch-layer
// counters alongside wall-clock. The wakeups/puts metric is the targeted
// sleep/wake protocol's bill; the seed's Broadcast-per-push regime implied
// workers wakes per put (8 here), so the metric sitting far below 8 is the
// bounded-contention claim in one number.
func BenchmarkGE1KNativeCnC(b *testing.B) {
	n, base, workers := 1024, 64, 8
	if testing.Short() {
		n = 256
	}
	rng := rand.New(rand.NewSource(6))
	orig := matrix.NewSquare(n)
	orig.FillDiagonallyDominant(rng)
	var wakeups, puts, steals uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		x := orig.Clone()
		b.StartTimer()
		stats, err := runGE(x, base, workers, core.NativeCnC, nil)
		if err != nil {
			b.Fatal(err)
		}
		wakeups += stats.Wakeups
		puts += stats.TagsPut + stats.ItemsPut
		steals += stats.Steals
	}
	b.ReportMetric(float64(wakeups)/float64(puts), "wakeups/put")
	b.ReportMetric(float64(steals)/float64(b.N), "steals/run")
}

// BenchmarkAblationBaseSize sweeps the base size of a real CnC GE run —
// the U-shaped curve of the figures, measured rather than simulated.
func BenchmarkAblationBaseSize(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	orig := matrix.NewSquare(512)
	orig.FillDiagonallyDominant(rng)
	for _, base := range []int{8, 16, 32, 64, 128, 256} {
		b.Run("base="+itoa(base), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				x := orig.Clone()
				b.StartTimer()
				if _, err := runGE(x, base, 4, core.TunerCnC, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernels measures the raw base-case kernels (the cost model's
// compute term).
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := matrix.NewSquare(256)
	x.FillDiagonallyDominant(rng)
	b.Run("GE/m=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.GE(x, 64, 64, 0, 64)
		}
	})
	b.Run("FW/m=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.FW(x, 64, 64, 0, 64)
		}
	})
	a := seq.RandomDNA(256, rng)
	h := matrix.New(257, 257)
	b.Run("SW/m=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.SW(h, a, a, kernels.DefaultScoring, 65, 65, 64)
		}
	})
}

// BenchmarkSimulatorThroughput measures the discrete-event scheduler on a
// mid-sized graph (events per second drive full-figure regeneration time).
func BenchmarkSimulatorThroughput(b *testing.B) {
	mach := benchMachine()
	ge, err := bench.ByName("ge")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.SimulatePoint(mach, ge, 4096, 64, core.NativeCnC); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMachine() *machine.Machine { return machine.EPYC64() }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkRealPar executes the parenthesis problem (matrix chain) on the
// host with every parallel variant — the high-fan-in dependency stress for
// the CnC tuners.
func BenchmarkRealPar(b *testing.B) {
	n, base, workers := realSizes(b)
	rng := rand.New(rand.NewSource(8))
	p := par.RandomProblem(n/2, 30, rng)
	pool := forkjoin.NewPool(forkjoin.Config{Workers: workers})
	defer pool.Close()
	for _, v := range core.ParallelVariants {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := p.Flow(p.NewTable(), base/2)
				if err == nil {
					_, err = bench.RunFlow(context.Background(), f, "par", v, bench.RunOpts{Workers: workers, Pool: pool})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Spanstudy: make the paper's central claim tangible. For each benchmark it
// prints work, span and parallelism of the fork-join and data-flow task
// graphs side by side, then simulates both on the paper's machines to show
// where artificial dependencies actually cost time — and runs a small REAL
// two-runtime execution with tracing to show worker idleness directly.
//
//	go run ./examples/spanstudy
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/machine"
	"dpflow/internal/model"
	"dpflow/internal/simsched"
)

func main() {
	spanTables()
	simulatedUtilization()
	realTracedRun()
}

func spanTables() {
	var unit simsched.Costs
	for k := 0; k < dag.NumKinds; k++ {
		if dag.Kind(k) != dag.KindJoin {
			unit.Exec[k] = 1
		}
	}
	fmt.Println("== task-graph structure (unit task costs) ==")
	fmt.Printf("%8s %8s | %10s %10s %8s | %10s %10s %8s\n",
		"bench", "tiles", "df span", "df par", "", "fj span", "fj par", "ratio")
	for _, tiles := range []int{8, 16, 32, 64} {
		for _, name := range []string{"GE", "SW"} {
			b, err := bench.ByName(name)
			check(err)
			df, err := simsched.Simulate(b.Dataflow(tiles), 0, unit)
			check(err)
			fj, err := simsched.Simulate(b.ForkJoin(tiles), 0, unit)
			check(err)
			fmt.Printf("%8s %8d | %10.0f %10.1f %8s | %10.0f %10.1f %8.2f\n",
				name, tiles, df.Makespan, df.Work/df.Makespan, "",
				fj.Makespan, fj.Work/fj.Makespan, fj.Makespan/df.Makespan)
		}
	}
	fmt.Println()
}

func simulatedUtilization() {
	fmt.Println("== simulated utilisation, GE n=2048 base=512 (starved regime) ==")
	ge, err := bench.ByName("ge")
	check(err)
	for _, mk := range []func() *machine.Machine{machine.EPYC64, machine.SKYLAKE192} {
		mach := mk()
		tiles := 2048 / gep.BaseSize(2048, 512)
		df, fj := ge.Dataflow(tiles), ge.ForkJoin(tiles)
		rdf, err := simsched.Simulate(df, mach.Cores, model.CostsFor(mach, ge, 2048, 512, core.NativeCnC, df.Len()))
		check(err)
		rfj, err := simsched.Simulate(fj, mach.Cores, model.CostsFor(mach, ge, 2048, 512, core.OMPTasking, df.Len()))
		check(err)
		fmt.Printf("%-12s data-flow: %6.3fs at %4.1f%% util | fork-join: %6.3fs at %4.1f%% util\n",
			mach.Name, rdf.Makespan, 100*rdf.Utilization, rfj.Makespan, 100*rfj.Utilization)
	}
	fmt.Println()
}

// realTracedRun executes GE on both real runtimes with every kernel traced
// and prints worker utilisation — small-scale, but the idleness pattern of
// the fork-join joins is real, not simulated.
func realTracedRun() {
	const (
		n       = 256
		base    = 32
		workers = 4
	)
	fmt.Printf("== real traced execution, GE n=%d base=%d on %d goroutine workers ==\n", n, base, workers)
	ge, err := bench.ByName("ge")
	check(err)
	pool := forkjoin.NewPool(forkjoin.Config{Workers: workers})
	defer pool.Close()
	// traced runs one variant on a fresh instance with every kernel
	// bracketed — a tile count and a busy-time sum — and verifies the
	// result against the serial reference.
	traced := func(name string, v core.Variant) {
		var tiles, busy atomic.Int64
		in, err := ge.NewInstance(n, base, 1)
		check(err)
		start := time.Now()
		_, err = in.Run(context.Background(), v, bench.RunOpts{Workers: workers, Pool: pool,
			Trace: func() func() {
				t0 := time.Now()
				return func() { tiles.Add(1); busy.Add(int64(time.Since(t0))) }
			}})
		wall := time.Since(start)
		check(err)
		check(in.Verify())
		fmt.Printf("%s: %4d tile tasks, kernel busy %v over %v wall\n",
			name, tiles.Load(), time.Duration(busy.Load()), wall)
	}
	traced("fork-join", core.OMPTasking)
	traced("data-flow", core.NativeCnC)
	fmt.Println("(identical results, identical task census — only the ordering differs)")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

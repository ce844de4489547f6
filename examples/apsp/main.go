// APSP: all-pairs shortest paths on a random directed graph with recursive
// divide-and-conquer Floyd-Warshall as a data-flow program, verified against
// the classic triple loop; then every execution model on the registry's "fw"
// benchmark, and the closed-form ring-graph oracle.
//
//	go run ./examples/apsp [-v 256] [-base 32] [-workers 4]
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
	"dpflow/internal/gep"
	"dpflow/internal/graphgen"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

func main() {
	v := flag.Int("v", 256, "vertices (power of two)")
	base := flag.Int("base", 32, "tile size")
	workers := flag.Int("workers", 4, "runtime workers")
	density := flag.Float64("density", 0.1, "edge probability")
	flag.Parse()

	rng := rand.New(rand.NewSource(3))
	d0 := graphgen.Random(graphgen.Config{N: *v, Density: *density, MaxWeight: 9, Infinity: graphgen.Infinity}, rng)
	fmt.Printf("APSP on a random digraph: %d vertices, density %.0f%%, base=%d, workers=%d\n\n",
		*v, 100**density, *base, *workers)

	ref := d0.Clone()
	kernels.FWSerial(ref)
	d := d0.Clone()
	dataflow(d, *base, *workers)
	if !matrix.Equal(d, ref) {
		log.Fatal("data-flow distance matrix differs from the triple loop's")
	}
	reachable, diameter := summarize(d)
	fmt.Printf("data-flow solution matches the triple loop: %d finite pairs, diameter %v\n\n", reachable, diameter)

	pool := forkjoin.NewPool(forkjoin.Config{Workers: *workers})
	defer pool.Close()
	// The study's own "fw" benchmark: the registry builds a seeded random
	// digraph with its serial-recursion reference, runs the variant and
	// verifies the distance matrix bit for bit.
	fwBench, err := bench.ByName("fw")
	if err != nil {
		log.Fatal(err)
	}
	for _, variant := range []core.Variant{core.SerialRDP, core.OMPTasking,
		core.NativeCnC, core.TunerCnC, core.ManualCnC} {
		in, err := fwBench.NewInstance(*v, *base, 3)
		if err != nil {
			log.Fatalf("%v: %v", variant, err)
		}
		start := time.Now()
		if _, err := in.Run(context.Background(), variant, bench.RunOpts{Workers: *workers, Pool: pool}); err != nil {
			log.Fatalf("%v: %v", variant, err)
		}
		elapsed := time.Since(start)
		if err := in.Verify(); err != nil {
			log.Fatalf("%v: %v", variant, err)
		}
		fmt.Printf("%-14s %10v   matches serial recursion: true\n", variant, elapsed.Round(time.Microsecond))
	}

	// Oracle check on the ring graph, whose APSP solution is known exactly.
	ring := graphgen.Ring(64, graphgen.Infinity)
	dataflow(ring, 8, *workers)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if ring.At(i, j) != graphgen.RingDistance(64, i, j) {
				log.Fatalf("ring oracle violated at (%d,%d)", i, j)
			}
		}
	}
	fmt.Println("\nring-graph oracle: all 4096 distances exact")
}

// dataflow runs Floyd-Warshall on d as the native CnC data-flow program.
func dataflow(d *matrix.Dense, base, workers int) {
	f, err := gep.FW.Flow(d, base)
	if err == nil {
		_, err = f.Run(context.Background(), "fw", workers, core.NativeCnC, nil)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func summarize(d *matrix.Dense) (finite int, diameter float64) {
	for i := 0; i < d.Rows(); i++ {
		for _, v := range d.Row(i) {
			if v < graphgen.Infinity {
				finite++
				if v > diameter {
					diameter = v
				}
			}
		}
	}
	return finite, diameter
}

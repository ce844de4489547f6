// Command dpsim explores one configuration of the study in depth: it
// builds the fork-join and data-flow task DAGs for a (benchmark, n, base)
// point, reports work/span/parallelism for both execution models, and
// simulates every variant on a chosen machine.
//
// Usage:
//
//	dpsim -bench ge -n 8192 -base 256 -machine epyc
//	dpsim -bench sw -n 4096 -base 128 -machine skylake -procs 48
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/machine"
	"dpflow/internal/model"
	"dpflow/internal/simsched"
)

func main() {
	var (
		benchName = flag.String("bench", "ge", "benchmark: "+bench.NameList())
		n         = flag.Int("n", 4096, "problem size (power of two)")
		base      = flag.Int("base", 128, "recursive base size")
		machName  = flag.String("machine", "epyc", "machine model: epyc, skylake, host")
		procs     = flag.Int("procs", 0, "override simulated processor count (0 = machine's cores)")
		timeline  = flag.Bool("timeline", false, "print processor-occupancy profiles (40 windows)")
	)
	flag.Parse()

	b, err := bench.ByName(*benchName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpsim: %v (known: %s)\n", err, bench.NameList())
		os.Exit(2)
	}
	var mach *machine.Machine
	switch strings.ToLower(*machName) {
	case "epyc":
		mach = machine.EPYC64()
	case "skylake", "skx":
		mach = machine.SKYLAKE192()
	case "host":
		mach = machine.Host()
	default:
		fmt.Fprintln(os.Stderr, "dpsim: unknown machine", *machName)
		os.Exit(2)
	}
	p := *procs
	if p <= 0 {
		p = mach.Cores
	}

	m := gep.BaseSize(*n, *base)
	tiles := *n / m
	fmt.Printf("%s n=%d base=%d (effective tile %d, %d tiles/side) on %s, P=%d\n\n",
		b.Name(), *n, *base, m, tiles, mach.Name, p)
	fmt.Println(model.Describe(mach, b, *n, *base))

	df, fj := b.Dataflow(tiles), b.ForkJoin(tiles)

	for _, side := range []struct {
		name string
		g    dag.Graph
		v    core.Variant
	}{
		{"data-flow", df, core.NativeCnC},
		{"fork-join", fj, core.OMPTasking},
	} {
		st := dag.Analyze(side.g)
		costs := model.CostsFor(mach, b, *n, *base, side.v, df.Len())
		span, err := simsched.Simulate(side.g, 0, costs)
		check(err)
		fmt.Printf("\n[%s DAG] nodes=%d tasks=%d edges=%d (A=%d B=%d C=%d D=%d SW=%d joins=%d)\n",
			side.name, st.Nodes, st.Tasks, st.Edges,
			st.ByKind[dag.KindA], st.ByKind[dag.KindB], st.ByKind[dag.KindC],
			st.ByKind[dag.KindD], st.ByKind[dag.KindSW], st.ByKind[dag.KindJoin])
		fmt.Printf("  T1 (work) = %.4fs   Tinf (span) = %.4fs (%d tasks on path)   parallelism = %.1f\n",
			span.Work, span.Makespan, span.SpanTasks, span.Work/span.Makespan)
	}

	fmt.Printf("\n[simulated execution on %d processors]\n", p)
	fmt.Printf("%14s %12s %12s %10s\n", "variant", "time (s)", "utilization", "peakReady")
	const windows = 40
	profiles := map[string][]float64{}
	for _, v := range core.ParallelVariants {
		g := df
		if v == core.OMPTasking {
			g = fj
		}
		r, err := simsched.SimulateTimeline(g, p, model.CostsFor(mach, b, *n, *base, v, df.Len()), windows)
		check(err)
		fmt.Printf("%14s %12.4f %12.1f%% %10d\n", v, r.Makespan, 100*r.Utilization, r.PeakReady)
		profiles[v.String()] = r.Timeline
	}
	if *timeline {
		fmt.Printf("\n[processor occupancy over time, %d equal windows]\n", windows)
		for _, v := range core.ParallelVariants {
			prof := profiles[v.String()]
			fmt.Printf("%14s |", v)
			for _, occ := range prof {
				level := int(occ / float64(p) * 9.999)
				fmt.Print(string("0123456789"[level]))
			}
			fmt.Println("| (0-9 = deciles of P busy)")
		}
	}
	fmt.Printf("%14s %12.4f\n", "Estimated", model.EstimatedTime(mach, b, *n, *base))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpsim:", err)
		os.Exit(1)
	}
}

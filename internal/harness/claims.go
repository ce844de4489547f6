package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/forkjoin"
	"dpflow/internal/gep"
	"dpflow/internal/machine"
	"dpflow/internal/model"
	"dpflow/internal/simsched"
)

// maxSweepTiles guards claim sweeps against building graphs with hundreds
// of millions of tasks (an FW cube at 512 tiles/side is 134M base tasks);
// points beyond the guard are skipped, which never moves the minimum — the
// skipped points are deep in the overhead-dominated regime.
const maxSweepTiles = 256

// unitCosts prices every task at 1 and every join at 0, so a span is a
// count of tasks.
func unitCosts() simsched.Costs {
	var unit simsched.Costs
	for k := 0; k < dag.NumKinds; k++ {
		if dag.Kind(k) != dag.KindJoin {
			unit.Exec[k] = 1
		}
	}
	return unit
}

// sweep is the grid of a best-over-bases claims report: every (machine,
// benchmark, n, variant) row is that point's minimum simulated time over
// Bases. One run of a report shares one simulator, so one DAG cache.
type sweep struct {
	Machines  []func() *machine.Machine
	Benches   []bench.Benchmark
	Ns, Bases []int
}

var paperMachines = []func() *machine.Machine{machine.EPYC64, machine.SKYLAKE192}

// crossover reproduces the paper's two headline claims as a report: with
// fixed cores, fork-join overtakes data-flow as the input grows; with a
// fixed problem, moving to the machine with more cores hands the win back
// to data-flow.
var crossover = sweep{Machines: paperMachines, Benches: bench.All(),
	Ns: []int{2048, 4096, 8192, 16384}, Bases: []int{32, 64, 128, 256, 512}}

// bestBlock reproduces the paper's closing observation that the best
// running times land at interior block sizes (the paper reports 128–256 on
// its testbeds) for every variant of every benchmark.
var bestBlock = sweep{Machines: paperMachines, Benches: bench.All(),
	Ns: []int{8192}, Bases: []int{16, 32, 64, 128, 256, 512, 1024}}

// bestOverBases returns the minimum simulated time of a variant over the
// sweep's bases, and the base achieving it. After an error in sim (a
// cancelled ctx included) the result is meaningless.
func (s sweep) bestOverBases(sim *simulator, mach *machine.Machine, b bench.Benchmark, n int, v core.Variant) (float64, int) {
	best, bestBase := math.Inf(1), 0
	for _, base := range s.Bases {
		if base > n/2 || n/gep.BaseSize(n, base) > maxSweepTiles {
			continue
		}
		if t := sim.point(mach, b, n, base, v); t < best {
			best, bestBase = t, base
		}
	}
	return best, bestBase
}

func (s sweep) writeCrossover(ctx context.Context, w io.Writer) error {
	sim := newSimulator(ctx)
	for _, b := range s.Benches {
		fmt.Fprintf(w, "# crossover: best time over base sweep, %s (data-flow = best CnC variant)\n", b.Name())
		fmt.Fprintf(w, "%12s %8s %14s %14s %10s\n", "machine", "n", "data-flow", "fork-join", "winner")
		for _, mk := range s.Machines {
			mach := mk()
			for _, n := range s.Ns {
				df := math.Inf(1)
				for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC} {
					t, _ := s.bestOverBases(sim, mach, b, n, v)
					df = min(df, t)
				}
				fj, _ := s.bestOverBases(sim, mach, b, n, core.OMPTasking)
				if sim.err != nil {
					return sim.err
				}
				winner := "data-flow"
				if fj < df {
					winner = "fork-join"
				}
				fmt.Fprintf(w, "%12s %8d %14.4f %14.4f %10s\n", mach.Name, n, df, fj, winner)
			}
		}
		fmt.Fprintln(w)
	}
	return writeCrossoverVerification(ctx, w)
}

// writeCrossoverVerification grounds the simulated tables in real runs:
// every registered benchmark executes every parallel variant on a small
// instance inside the checked envelope (bench.Check: its serial reference
// and the leak rider). A benchmark that simulates but cannot run — or runs
// but disagrees with its reference — fails the experiment instead of
// shipping an unverified table.
func writeCrossoverVerification(ctx context.Context, w io.Writer) error {
	const (
		verifyN       = 128
		verifyBase    = 16
		verifyWorkers = 4
		verifySeed    = 5
	)
	pool := forkjoin.NewPool(forkjoin.Config{Workers: verifyWorkers})
	defer pool.Close()
	fmt.Fprintf(w, "# verification: real runs, n=%d base=%d workers=%d, checked against serial reference\n",
		verifyN, verifyBase, verifyWorkers)
	fmt.Fprintf(w, "%10s %14s %12s %12s\n", "bench", "variant", "base tasks", "result")
	for _, b := range bench.All() {
		for _, v := range core.ParallelVariants {
			if err := ctx.Err(); err != nil {
				return err
			}
			in, err := b.NewInstance(verifyN, verifyBase, verifySeed)
			if err != nil {
				return fmt.Errorf("crossover verify %s: %w", b.Name(), err)
			}
			c := bench.Check{}.Run(ctx, in, v, bench.RunOpts{Workers: verifyWorkers, Pool: pool})
			if c.Err != nil {
				return fmt.Errorf("crossover verify %s/%v: %w", b.Name(), v, c.Err)
			}
			fmt.Fprintf(w, "%10s %14s %12d %12s\n", b.Name(), v, c.BaseTasks, "ok")
		}
	}
	return nil
}

// WriteSWSpan reproduces the §IV-B wavefront claim quantitatively: the
// fork-join span of R-DP Smith-Waterman grows like T^lg3 while the
// data-flow span grows like 2T-1, so the artificial-dependency penalty is
// unbounded.
func WriteSWSpan(ctx context.Context, w io.Writer) error {
	sw, errSW := bench.ByName("sw")
	ge, errGE := bench.ByName("ge")
	if err := errors.Join(errSW, errGE); err != nil {
		return err
	}
	unit, sim := unitCosts(), newSimulator(ctx)
	fmt.Fprintln(w, "# swspan: critical path length (in unit tasks) of R-DP Smith-Waterman")
	fmt.Fprintf(w, "%8s %12s %12s %8s %22s\n", "tiles", "data-flow", "fork-join", "ratio", "theory fj = T^lg3")
	for _, tiles := range []int{4, 8, 16, 32, 64, 128} {
		df := sim.run(sw.Dataflow(tiles), 0, unit).Makespan
		fj := sim.run(sw.ForkJoin(tiles), 0, unit).Makespan
		if sim.err != nil {
			return sim.err
		}
		fmt.Fprintf(w, "%8d %12.0f %12.0f %8.2f %22.0f\n",
			tiles, df, fj, fj/df, math.Pow(float64(tiles), math.Log2(3)))
	}
	fmt.Fprintln(w, "\n# GE spans for comparison (A->B/C->D chain: data-flow = 3T-2)")
	fmt.Fprintf(w, "%8s %12s %12s %8s\n", "tiles", "data-flow", "fork-join", "ratio")
	for _, tiles := range []int{4, 8, 16, 32, 64} {
		df := sim.run(ge.Dataflow(tiles), 0, unit).Makespan
		fj := sim.run(ge.ForkJoin(tiles), 0, unit).Makespan
		if sim.err != nil {
			return sim.err
		}
		fmt.Fprintf(w, "%8d %12.0f %12.0f %8.2f\n", tiles, df, fj, fj/df)
	}
	return nil
}

func (s sweep) writeBestBlock(ctx context.Context, w io.Writer) error {
	sim := newSimulator(ctx)
	for _, n := range s.Ns {
		fmt.Fprintf(w, "# bestblock: argmin base size per benchmark/machine/variant, n=%d\n", n)
		fmt.Fprintf(w, "%12s %10s %14s %10s %14s\n", "machine", "bench", "variant", "best base", "time")
		for _, mk := range s.Machines {
			mach := mk()
			for _, b := range s.Benches {
				for _, v := range core.ParallelVariants {
					t, base := s.bestOverBases(sim, mach, b, n, v)
					if sim.err != nil {
						return sim.err
					}
					fmt.Fprintf(w, "%12s %10s %14s %10d %14.4f\n", mach.Name, b.Name(), v, base, t)
				}
			}
		}
	}
	return nil
}

// WriteRWay quantifies how much of the fork-join artificial-dependency span
// the parametric r-way algorithms (the paper's references [15, 16], §I)
// recover: as the split arity r grows toward the tile count, the fork-join
// span approaches the data-flow span — at the cost of giving up cache
// obliviousness.
func WriteRWay(ctx context.Context, w io.Writer) error {
	mach := machine.EPYC64()
	const (
		n     = 8192
		base  = 128
		tiles = n / base // 64
	)
	ge, err := bench.ByName("ge")
	if err != nil {
		return err
	}
	unit, sim := unitCosts(), newSimulator(ctx)
	df := ge.Dataflow(tiles)
	dfSpan := sim.run(df, 0, unit).Makespan
	dfTime := sim.run(df, mach.Cores, model.CostsFor(mach, ge, n, base, core.NativeCnC, df.Len())).Makespan
	if sim.err != nil {
		return sim.err
	}
	fmt.Fprintf(w, "# rway: r-way fork-join GE, n=%d base=%d (%d tiles) on %s\n", n, base, tiles, mach.Name)
	fmt.Fprintf(w, "%10s %14s %14s %14s\n", "r", "span (tasks)", "sim time (s)", "vs data-flow")
	fmt.Fprintf(w, "%10s %14.0f %14.4f %14s\n", "data-flow", dfSpan, dfTime, "1.00")
	fjCosts := model.CostsFor(mach, ge, n, base, core.OMPTasking, df.Len())
	for _, r := range []int{2, 4, 8, tiles} {
		g := rwayForkJoin(df.(*dag.Dataflow[gep.ItemKey]), gep.Triangular, tiles, r)
		span := sim.run(g, 0, unit).Makespan
		t := sim.run(g, mach.Cores, fjCosts).Makespan
		if sim.err != nil {
			return sim.err
		}
		fmt.Fprintf(w, "%10d %14.0f %14.4f %14.2f\n", r, span, t, t/dfTime)
	}
	return nil
}

// rwayForkJoin materialises the ordering DAG of the r-way fork-join GEP
// execution for a tiles×tiles grid: the 2-way walk of the runtime's Flow
// with r a parameter, through the same builder. tiles must be a power of r.
// With r == tiles the recursion flattens into one level of phase-parallel
// batches — the closest a fork-join program gets to the data-flow
// schedule — so sweeping r quantifies how much of the artificial-dependency
// span the parametric r-way algorithms of the paper's references [15, 16]
// recover. df is the shape's data-flow graph, which classifies the tasks.
func rwayForkJoin(df *dag.Dataflow[gep.ItemKey], shape gep.Shape, tiles, r int) *dag.CSR {
	if tiles < 1 || r < 2 {
		panic(fmt.Sprintf("harness: fork-join needs tiles >= 1 and an r-way split with r >= 2, got tiles=%d r=%d", tiles, r))
	}
	for s := tiles; s > 1; s /= r {
		if s%r != 0 {
			panic(fmt.Sprintf("harness: tiles=%d is not a power of r=%d", tiles, r))
		}
	}
	return dag.ForkJoin(gep.Tag{S: tiles}, false,
		func(t gep.Tag) (dag.Kind, bool) { return df.Kind(df.ID(gep.ItemKey{I: t.I, J: t.J, K: t.K})), t.S == 1 },
		func(t gep.Tag, _ bool, visit func(gep.Tag, bool)) { shape.Walk(t, r, visit) })
}

// WriteComputeOn projects the compute_on tuner the paper's §IV-B closes
// with: pinning tile tasks to a home socket ("thereby minimizing potential
// inter-core and inter-NUMA data movement"). The migration penalty is the
// modelled cost of a tile's three-block working set crossing the socket
// interconnect; the policy column shows FIFO dispatch (no placement) versus
// home-socket-preferring dispatch.
func WriteComputeOn(ctx context.Context, w io.Writer) error {
	mach := machine.SKYLAKE192()
	const (
		n    = 8192
		base = 128
	)
	ge, err := bench.ByName("ge")
	if err != nil {
		return err
	}
	m := gep.BaseSize(n, base)
	df := ge.Dataflow(n / m).(*dag.Dataflow[gep.ItemKey])
	costs := model.CostsFor(mach, ge, n, base, core.TunerCnC, df.Len())
	// A migrated tile re-streams its working set across the interconnect.
	penalty := float64(bench.WorkingSetBytes(m)) / 64.0 * mach.MemMissCost
	home := func(id int) int {
		k := df.Key(id)
		return (k.I*131 + k.J) % mach.Sockets
	}
	fmt.Fprintf(w, "# computeon: GE n=%d base=%d on %s, %d sockets, migration penalty %.3gms/task\n",
		n, base, mach.Name, mach.Sockets, penalty*1e3)
	fmt.Fprintf(w, "%18s %14s %14s %14s\n", "policy", "time (s)", "migrations", "utilization")
	for _, pol := range []struct {
		name   string
		prefer bool
	}{{"fifo (no hint)", false}, {"compute_on", true}} {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, err := simsched.SimulateAffinity(df, mach.Cores, costs, simsched.Affinity{
			Sockets:        mach.Sockets,
			Home:           home,
			MigratePenalty: penalty,
			PreferHome:     pol.prefer,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%18s %14.4f %14d %13.1f%%\n", pol.name, r.Makespan, r.Migrations, 100*r.Utilization)
	}
	return nil
}

// WriteScaling sweeps the processor count at a fixed problem — the
// continuous form of the paper's "more cores favour data-flow" claim (and
// the strong-scaling presentation its related-work section cites for CnC).
// The speedup columns are T_serial / T_P per execution model.
func WriteScaling(ctx context.Context, w io.Writer) error {
	const (
		n    = 4096
		base = 128
	)
	mach := machine.EPYC64() // cost constants; the core count is swept
	fmt.Fprintf(w, "# scaling: simulated strong scaling, n=%d base=%d (%s cost model)\n", n, base, mach.Name)
	sim := newSimulator(ctx)
	for _, b := range bench.All() {
		tiles := n / gep.BaseSize(n, base)
		df, fj := b.Dataflow(tiles), b.ForkJoin(tiles)
		dfCosts := model.CostsFor(mach, b, n, base, core.NativeCnC, df.Len())
		fjCosts := model.CostsFor(mach, b, n, base, core.OMPTasking, df.Len())
		dfOne := sim.run(df, 1, dfCosts).Makespan
		fjOne := sim.run(fj, 1, fjCosts).Makespan
		fmt.Fprintf(w, "\n## %s (%d tiles/side)\n", b.Name(), tiles)
		fmt.Fprintf(w, "%8s %14s %12s %14s %12s %10s\n",
			"P", "data-flow (s)", "speedup", "fork-join (s)", "speedup", "winner")
		for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
			tdf := sim.run(df, p, dfCosts).Makespan
			tfj := sim.run(fj, p, fjCosts).Makespan
			if sim.err != nil {
				return sim.err
			}
			winner := "data-flow"
			if tfj < tdf {
				winner = "fork-join"
			}
			fmt.Fprintf(w, "%8d %14.4f %12.1f %14.4f %12.1f %10s\n",
				p, tdf, dfOne/tdf, tfj, fjOne/tfj, winner)
		}
	}
	return nil
}

// WriteCluster explores the paper's distributed-memory future work: the
// data-flow GE DAG under owner-computes placement (2-D block-cyclic tiles)
// on clusters of EPYC-like nodes, with per-edge communication costs. The
// small-base rows show communication swamping the extra parallelism; the
// large-base rows scale until starvation — the surface-to-volume tradeoff
// distributed R-DP work revolves around.
func WriteCluster(ctx context.Context, w io.Writer) error {
	mach := machine.EPYC64()
	const n = 8192
	fmt.Fprintf(w, "# cluster: distributed data-flow GE, n=%d, owner-computes block-cyclic tiles\n", n)
	fmt.Fprintf(w, "%8s %8s %8s %14s %12s %12s %12s\n",
		"base", "nodes", "cores", "time (s)", "speedup", "messages", "comm (s)")
	ge, err := bench.ByName("ge")
	if err != nil {
		return err
	}
	for _, base := range []int{128, 512} {
		m := gep.BaseSize(n, base)
		g := ge.Dataflow(n / m).(*dag.Dataflow[gep.ItemKey])
		costs := model.CostsFor(mach, ge, n, base, core.NativeCnC, g.Len())
		transfer := float64(m*m*8) / (10 << 30) // tile over 10 GiB/s links
		var t1 float64
		for _, nodes := range []int{1, 2, 4, 8, 16} {
			if err := ctx.Err(); err != nil {
				return err
			}
			pr := 1
			for pr*pr < nodes {
				pr *= 2
			} // process grid pr x nodes/pr; pr <= nodes, so pc >= 1
			pc := nodes / pr
			home := func(id int) int {
				k := g.Key(id)
				return (k.I%pr)*pc + (k.J % pc)
			}
			r, err := simsched.SimulateCluster(g, simsched.Cluster{
				Nodes: nodes, CoresPerNode: 32, Home: home,
				Latency: 2e-6, TransferTime: transfer,
			}, costs)
			if err != nil {
				return err
			}
			if nodes == 1 {
				t1 = r.Makespan
			}
			fmt.Fprintf(w, "%8d %8d %8d %14.4f %12.2f %12d %12.3f\n",
				base, nodes, nodes*32, r.Makespan, t1/r.Makespan, r.Messages, r.CommTime)
		}
	}
	return nil
}

// WriteSWWave compares the three SW schedules the paper discusses: the
// 2-way fork-join recursion (artificial dependencies), the
// barrier-per-wavefront fork-join of footnote 6 (span-optimal but rigid),
// and the pure data-flow wavefront. Simulated on EPYC-64 with per-variant
// overheads.
func WriteSWWave(ctx context.Context, w io.Writer) error {
	mach := machine.EPYC64()
	sw, err := bench.ByName("sw")
	if err != nil {
		return err
	}
	const n = 8192
	fmt.Fprintf(w, "# swwave: three SW schedules, n=%d on %s\n", n, mach.Name)
	fmt.Fprintf(w, "%8s %18s %18s %18s\n", "base", "fj-recursion (s)", "fj-wavefront (s)", "data-flow (s)")
	sim := newSimulator(ctx)
	for _, base := range []int{64, 128, 256, 512} {
		tiles := n / gep.BaseSize(n, base)
		df := sw.Dataflow(tiles)
		costsFJ := model.CostsFor(mach, sw, n, base, core.OMPTasking, df.Len())
		costsDF := model.CostsFor(mach, sw, n, base, core.NativeCnC, df.Len())
		rec := sim.run(sw.ForkJoin(tiles), mach.Cores, costsFJ).Makespan
		wave := sim.run(dag.NewSWWavefrontBarrier(tiles), mach.Cores, costsFJ).Makespan
		flow := sim.run(df, mach.Cores, costsDF).Makespan
		if sim.err != nil {
			return sim.err
		}
		fmt.Fprintf(w, "%8d %18.4f %18.4f %18.4f\n", base, rec, wave, flow)
	}
	return nil
}

package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/machine"
	"dpflow/internal/matrix"
	"dpflow/internal/model"
	"dpflow/internal/simsched"
)

// Validate rejects flag values no entry can run with, so dpbench can report
// a usage error before it runs anything.
func (f *ReportFlags) Validate() error {
	if f.Scale < 0 {
		return fmt.Errorf("-scale %d: must be >= 0", f.Scale)
	}
	_, _, err := f.point()
	return err
}

// point resolves the point view's benchmark and machine. The recursion
// follows gep's rule for real runs: n a power of two, base >= 1.
func (f *ReportFlags) point() (bench.Benchmark, *machine.Machine, error) {
	b, err := bench.ByName(f.Bench)
	if err != nil {
		return nil, nil, err
	}
	if !matrix.IsPow2(f.N) {
		return nil, nil, fmt.Errorf("-n %d: must be a power of two", f.N)
	}
	if f.Base < 1 {
		return nil, nil, fmt.Errorf("-base %d: must be >= 1", f.Base)
	}
	switch strings.ToLower(f.Machine) {
	case "epyc":
		return b, machine.EPYC64(), nil
	case "skylake":
		return b, machine.SKYLAKE192(), nil
	case "host":
		return b, machine.Host(), nil
	}
	return nil, nil, fmt.Errorf("-machine %q: want epyc, skylake or host", f.Machine)
}

// writePoint explores one (benchmark, n, base) configuration in depth: the
// model's view of a task, work/span/parallelism of both execution models'
// DAGs, every variant simulated on the machine with its processor-occupancy
// profile, and the analytical estimate.
func (f *ReportFlags) writePoint(ctx context.Context, w io.Writer) error {
	b, mach, err := f.point()
	if err != nil {
		return err
	}
	n, base, p := f.N, f.Base, f.Procs
	if p <= 0 {
		p = mach.Cores
	}
	m := gep.BaseSize(n, base)
	tiles := n / m
	fmt.Fprintf(w, "%s n=%d base=%d (effective tile %d, %d tiles/side) on %s, P=%d\n\n",
		b.Name(), n, base, m, tiles, mach.Name, p)
	fmt.Fprintln(w, model.Describe(mach, b, n, base))

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
		span, err := simsched.Simulate(side.g, 0, model.CostsFor(mach, b, n, base, side.v, df.Len()))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n[%s DAG] nodes=%d tasks=%d edges=%d (A=%d B=%d C=%d D=%d SW=%d joins=%d)\n",
			side.name, st.Nodes, st.Tasks, st.Edges,
			st.ByKind[dag.KindA], st.ByKind[dag.KindB], st.ByKind[dag.KindC],
			st.ByKind[dag.KindD], st.ByKind[dag.KindSW], st.ByKind[dag.KindJoin])
		fmt.Fprintf(w, "  T1 (work) = %.4fs   Tinf (span) = %.4fs (%d tasks on path)   parallelism = %.1f\n",
			span.Work, span.Makespan, span.SpanTasks, span.Work/span.Makespan)
	}

	fmt.Fprintf(w, "\n[simulated execution on %d processors]\n", p)
	fmt.Fprintf(w, "%14s %12s %12s %10s\n", "variant", "time (s)", "utilization", "peakReady")
	const windows = 40
	var profiles [][]float64
	for _, v := range core.ParallelVariants {
		if err := ctx.Err(); err != nil {
			return err
		}
		g := df
		if v == core.OMPTasking {
			g = fj
		}
		r, err := simsched.SimulateTimeline(g, p, model.CostsFor(mach, b, n, base, v, df.Len()), windows)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%14s %12.4f %12.1f%% %10d\n", v, r.Makespan, 100*r.Utilization, r.PeakReady)
		profiles = append(profiles, r.Timeline)
	}
	fmt.Fprintf(w, "\n[processor occupancy over time, %d equal windows]\n", windows)
	for i, v := range core.ParallelVariants {
		fmt.Fprintf(w, "%14s |", v)
		for _, occ := range profiles[i] {
			fmt.Fprint(w, string("0123456789"[int(occ/float64(p)*9.999)]))
		}
		fmt.Fprintln(w, "| (0-9 = deciles of P busy)")
	}
	fmt.Fprintf(w, "%14s %12.4f\n", "Estimated", model.EstimatedTime(mach, b, n, base))
	return nil
}

// writeSpec prints the benchmark's static CnC specification graph — its
// collections and their prescribe/produce/consume edges — in the paper's
// textual notation (Listing 1 style) or as Graphviz DOT (Figure 1 style).
func (f *ReportFlags) writeSpec(_ context.Context, w io.Writer) error {
	b, err := bench.ByName(f.Bench)
	if err != nil {
		return err
	}
	g := b.SpecGraph()
	text := g.Describe()
	if f.Dot {
		text = g.Dot()
	}
	_, err = io.WriteString(w, text)
	return err
}

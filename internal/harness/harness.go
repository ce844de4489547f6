// Package harness defines and runs the paper's experiments: one entry per
// figure (Figures 4–9) and table (Table I), plus the textual claims of
// §IV-B (crossover, SW wavefront, best block size). Each experiment names
// its workload, parameter sweep and series, runs through the DAG builder +
// cost model + discrete-event simulator pipeline, and renders the same
// rows/series the paper reports.
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/dag"
	"dpflow/internal/gep"
	"dpflow/internal/machine"
	"dpflow/internal/model"
	"dpflow/internal/simsched"
)

// Experiment is one figure-style sweep.
type Experiment struct {
	ID      string
	Title   string
	Bench   string // registry name (bench.ByName)
	Machine func() *machine.Machine
	Ns      []int
	// BasesFor returns the base-size x-axis of the panel for problem size n.
	BasesFor func(n int) []int
	// Estimated adds the paper's analytical-model series (GE figures).
	Estimated bool
}

// Options controls a run.
type Options struct {
	// Scale divides every problem size by 2^Scale (tile counts shrink
	// accordingly): Scale 2 turns the 16K panel into a 4K-shaped one.
	// Scale 0 reproduces the paper's sizes exactly.
	Scale int
	// MaxTiles skips sweep points whose tile count exceeds the limit
	// (memory/time guard); 0 means no limit.
	MaxTiles int
	// Progress, when non-nil, receives one line per completed panel.
	Progress io.Writer
}

// Panel is one sub-plot: a fixed problem size with one series per variant.
type Panel struct {
	N      int
	Bases  []int
	Series []core.Series
}

// FigureResult is a completed experiment.
type FigureResult struct {
	Exp    Experiment
	Panels []Panel
}

// Figures returns the six figure experiments of the paper's evaluation.
func Figures() []Experiment {
	geBases := func(n int) []int {
		switch {
		case n <= 2048:
			return []int{8, 16, 32, 64, 128, 256, 512}
		case n <= 4096:
			return []int{16, 32, 64, 128, 256, 512, 1024}
		default:
			return []int{64, 128, 256, 512, 1024, 2048}
		}
	}
	swfwBases := func(n int) []int {
		if n <= 4096 {
			return []int{64, 128, 256, 512}
		}
		return []int{64, 128, 256, 512, 1024, 2048}
	}
	ns := []int{2048, 4096, 8192, 16384}
	return []Experiment{
		{ID: "fig4", Title: "Execution time of Gaussian Elimination on EPYC-64",
			Bench: "ge", Machine: machine.EPYC64, Ns: ns, BasesFor: geBases, Estimated: true},
		{ID: "fig5", Title: "Execution time of Gaussian Elimination on SKYLAKE-192",
			Bench: "ge", Machine: machine.SKYLAKE192, Ns: ns, BasesFor: geBases, Estimated: true},
		{ID: "fig6", Title: "Execution time of Smith-Waterman on EPYC-64",
			Bench: "sw", Machine: machine.EPYC64, Ns: ns, BasesFor: swfwBases},
		{ID: "fig7", Title: "Execution time of Smith-Waterman on SKYLAKE-192",
			Bench: "sw", Machine: machine.SKYLAKE192, Ns: ns, BasesFor: swfwBases},
		{ID: "fig8", Title: "Execution time of Floyd-Warshall on EPYC-64",
			Bench: "fw", Machine: machine.EPYC64, Ns: ns, BasesFor: swfwBases},
		{ID: "fig9", Title: "Execution time of Floyd-Warshall on SKYLAKE-192",
			Bench: "fw", Machine: machine.SKYLAKE192, Ns: ns, BasesFor: swfwBases},
		// Beyond the paper: Cholesky shares GE's triangular kernel geometry,
		// so it reuses the GE base-size axis and analytical-model series.
		{ID: "figch", Title: "Execution time of Cholesky factorization on EPYC-64",
			Bench: "chol", Machine: machine.EPYC64, Ns: ns, BasesFor: geBases, Estimated: true},
	}
}

// FigureByID returns the figure experiment with the given id.
func FigureByID(id string) (Experiment, bool) {
	for _, e := range Figures() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// graphFor builds (or fetches from cache) the task graph of one sweep
// point. Data-flow graphs are shared across the three CnC variants.
func graphFor(cache map[string]dag.Graph, b bench.Benchmark, tiles int, m core.Model) dag.Graph {
	key := fmt.Sprintf("%s/%d/%d", b.Name(), tiles, m)
	if g, ok := cache[key]; ok {
		return g
	}
	var g dag.Graph
	if m == core.ForkJoin {
		g = b.ForkJoin(tiles)
	} else {
		g = b.Dataflow(tiles)
	}
	cache[key] = g
	return g
}

// SimulatePoint runs one (machine, bench, n, base, variant) point through
// the model + simulator and returns the predicted execution time.
func SimulatePoint(mach *machine.Machine, b bench.Benchmark, n, base int, v core.Variant) (float64, error) {
	return simulatePoint(map[string]dag.Graph{}, mach, b, n, base, v)
}

func simulatePoint(cache map[string]dag.Graph, mach *machine.Machine, b bench.Benchmark, n, base int, v core.Variant) (float64, error) {
	tiles := n / gep.BaseSize(n, base)
	df := graphFor(cache, b, tiles, core.DataFlow)
	g := df
	if v == core.OMPTasking {
		g = graphFor(cache, b, tiles, core.ForkJoin)
	}
	costs := model.CostsFor(mach, b, n, base, v, df.Len())
	r, err := simsched.Simulate(g, mach.Cores, costs)
	if err != nil {
		return 0, err
	}
	return r.Makespan, nil
}

// RunContext executes the experiment. The sweep checks ctx between points,
// so a deadline or interrupt abandons the remaining points and returns
// ctx.Err() instead of a partial result.
func (e Experiment) RunContext(ctx context.Context, opts Options) (*FigureResult, error) {
	mach := e.Machine()
	bm, err := bench.ByName(e.Bench)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	res := &FigureResult{Exp: e}
	for _, fullN := range e.Ns {
		n := fullN >> opts.Scale
		if n < 256 {
			continue
		}
		panel := Panel{N: n}
		labels := []string{}
		for _, v := range core.ParallelVariants {
			labels = append(labels, v.String())
		}
		if e.Estimated {
			labels = append(labels, "Estimated")
		}
		series := make([]core.Series, len(labels))
		for i, l := range labels {
			series[i] = core.Series{Label: l}
		}
		cache := map[string]dag.Graph{}
		for _, base := range e.BasesFor(fullN) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			b := base >> opts.Scale
			if b < 1 || b > n/2 {
				continue
			}
			tiles := n / gep.BaseSize(n, b)
			if opts.MaxTiles > 0 && tiles > opts.MaxTiles {
				continue
			}
			panel.Bases = append(panel.Bases, b)
			for i, v := range core.ParallelVariants {
				secs, err := simulatePoint(cache, mach, bm, n, b, v)
				if err != nil {
					return nil, fmt.Errorf("%s n=%d base=%d %v: %w", e.ID, n, b, v, err)
				}
				series[i].Points = append(series[i].Points, core.Point{
					Bench: bm.Name(), Machine: mach.Name, Variant: v.String(),
					N: n, Base: b, Seconds: secs,
				})
			}
			if e.Estimated {
				series[len(series)-1].Points = append(series[len(series)-1].Points, core.Point{
					Bench: bm.Name(), Machine: mach.Name, Variant: "Estimated",
					N: n, Base: b, Seconds: model.EstimatedTime(mach, bm, n, b),
				})
			}
		}
		panel.Series = series
		res.Panels = append(res.Panels, panel)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%s: panel n=%d done (%d points)\n", e.ID, n, len(panel.Bases))
		}
	}
	return res, nil
}

// WriteTable renders the result as aligned text tables, one per panel —
// the same rows the paper's figures plot.
func (r *FigureResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", r.Exp.ID, r.Exp.Title)
	for _, p := range r.Panels {
		fmt.Fprintf(w, "\n## %s matrix (%s, %s)\n", sizeLabel(p.N), r.Exp.Bench, r.Exp.Machine().Name)
		fmt.Fprintf(w, "%8s", "base")
		for _, s := range p.Series {
			fmt.Fprintf(w, " %14s", s.Label)
		}
		fmt.Fprintln(w)
		for i, base := range p.Bases {
			fmt.Fprintf(w, "%8d", base)
			for _, s := range p.Series {
				if i < len(s.Points) {
					fmt.Fprintf(w, " %14.4f", s.Points[i].Seconds)
				} else {
					fmt.Fprintf(w, " %14s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteCSV renders the result as CSV rows.
func (r *FigureResult) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "experiment,machine,bench,n,base,variant,seconds")
	for _, p := range r.Panels {
		for _, s := range p.Series {
			for _, pt := range s.Points {
				fmt.Fprintf(w, "%s,%s,%s,%d,%d,%s,%.6f\n",
					r.Exp.ID, pt.Machine, pt.Bench, pt.N, pt.Base, pt.Variant, pt.Seconds)
			}
		}
	}
}

// Best returns, per panel, the winning variant and its (base, time).
func (r *FigureResult) Best() []string {
	var out []string
	for _, p := range r.Panels {
		bestLabel, bestBase, bestT := "", 0, 0.0
		for _, s := range p.Series {
			if s.Label == "Estimated" {
				continue
			}
			for i, pt := range s.Points {
				if bestLabel == "" || pt.Seconds < bestT {
					bestLabel, bestBase, bestT = s.Label, p.Bases[i], pt.Seconds
				}
			}
		}
		out = append(out, fmt.Sprintf("n=%d: %s wins at base %d (%.3fs)", p.N, bestLabel, bestBase, bestT))
	}
	return out
}

func sizeLabel(n int) string {
	if n%1024 == 0 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprint(n)
}

// Report is one dpbench experiment: an id and the function that writes it.
type Report struct {
	ID  string
	Run func(ctx context.Context, w io.Writer) error
}

// ReportFlags are dpbench's flags: the sweep Options of the figures plus
// the two flags the other reports take (table1's scale, dist's sampling).
type ReportFlags struct {
	Options
	CSV, JSON    bool // figures: output format (default aligned tables)
	TScale       int  // table1: linear scaling factor (1 = the paper's full 8K trace)
	VerifySample int  // dist: mirror verification rate
}

// Reports is the one table of experiments — the figures, Table I, the
// derived claims and the real-run reports — sorted by id. dpbench's -list,
// -exp all and dispatch all read it, so an id cannot be listed without
// being runnable or the reverse. The entries read *f when they run, so the
// table can be built before the flags are parsed.
func Reports(f *ReportFlags) []Report {
	rs := []Report{
		{ID: "table1", Run: func(ctx context.Context, w io.Writer) error {
			res, err := RunTable1Context(ctx, f.TScale)
			if err != nil {
				return err
			}
			res.WriteTable(w)
			return nil
		}},
		{ID: "crossover", Run: WriteCrossover},
		{ID: "swspan", Run: WriteSWSpan},
		{ID: "bestblock", Run: WriteBestBlock},
		{ID: "rway", Run: WriteRWay},
		{ID: "computeon", Run: WriteComputeOn},
		{ID: "scaling", Run: WriteScaling},
		{ID: "cluster", Run: WriteCluster},
		{ID: "swwave", Run: WriteSWWave},
		{ID: "memory", Run: WriteMemory},
		{ID: "dist", Run: func(ctx context.Context, w io.Writer) error {
			return WriteDist(ctx, w, f.VerifySample)
		}},
	}
	for _, e := range Figures() {
		rs = append(rs, Report{ID: e.ID, Run: func(ctx context.Context, w io.Writer) error {
			return e.write(ctx, w, f)
		}})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
	return rs
}

// write runs the figure and renders it in the format the flags select:
// CSV, JSON, or aligned tables followed by the per-panel winners.
func (e Experiment) write(ctx context.Context, w io.Writer, f *ReportFlags) error {
	res, err := e.RunContext(ctx, f.Options)
	if err != nil {
		return err
	}
	switch {
	case f.CSV:
		res.WriteCSV(w)
	case f.JSON:
		return res.WriteJSON(w)
	default:
		res.WriteTable(w)
		fmt.Fprintln(w)
		for _, line := range res.Best() {
			fmt.Fprintln(w, "//", line)
		}
	}
	return nil
}

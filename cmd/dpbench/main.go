// Command dpbench regenerates the paper's evaluation artifacts: every
// figure (fig4..fig9, plus the beyond-the-paper Cholesky panel figch),
// Table I (table1), the §IV-B claims reports (crossover, swspan,
// bestblock), and the bounded-memory contract report (memory: get-count
// GC leak freedom plus backpressure under a live-set budget). The
// benchmark-facing experiments iterate the internal/bench registry, so
// every registered benchmark — chol, fw, ge, sw — appears in the
// crossover verification, memory, and dist (sharded multi-process vs
// single-process) reports. dpbench times nothing about the runtime: that
// is cmd/dpperf, and the checked correctness matrix is cmd/dpverify.
//
// Usage:
//
//	dpbench -exp fig4            # print the figure's panels as tables
//	dpbench -exp fig8 -csv       # CSV instead of aligned tables
//	dpbench -exp fig5 -scale 2   # quarter-size panels (fast preview)
//	dpbench -exp table1 -tscale 8
//	dpbench -exp all -timeout 5m # everything, bounded
//	dpbench -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"dpflow/internal/dist"
	"dpflow/internal/harness"
)

func main() {
	// The dist coordinator self-execs this binary as its shard workers
	// (dpbench -exp dist); with the worker env set this call never returns.
	dist.MaybeWorkerChild()
	var f harness.ReportFlags
	reports := harness.Reports(&f)
	var ids []string
	for _, r := range reports {
		ids = append(ids, r.ID)
	}
	idList := strings.Join(ids, ", ")
	var (
		exp     = flag.String("exp", "", "experiment id ("+idList+", or 'all')")
		timeout = flag.Duration("timeout", 0, "abandon the run after this long (0 = no limit)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		quiet   = flag.Bool("quiet", false, "suppress progress lines")
	)
	flag.BoolVar(&f.CSV, "csv", false, "figures: emit CSV instead of aligned tables")
	flag.BoolVar(&f.JSON, "json", false, "figures: emit JSON instead of aligned tables")
	flag.IntVar(&f.Scale, "scale", 0, "divide figure problem sizes by 2^scale (0 = paper sizes)")
	flag.IntVar(&f.TScale, "tscale", 8, "table1 linear scaling factor (1 = the paper's full 8K trace)")
	flag.IntVar(&f.MaxTiles, "maxtiles", 256, "skip sweep points with more tiles per side than this (0 = no limit)")
	flag.IntVar(&f.VerifySample, "verify-sample", 0, "dist: mirror verification rate: every n-th acked put is fetched back and compared (0 = 1-in-16 default, 1 = every put, <0 = never)")
	flag.Parse()

	if *list {
		fmt.Println(idList)
		return
	}
	// One table (harness.Reports) answers -list, expands 'all' and dispatches.
	var selected []harness.Report
	for _, r := range reports {
		if r.ID == *exp || *exp == "all" {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "dpbench: unknown or missing -exp %q; one of: %s, or 'all'\n", *exp, idList)
		os.Exit(2)
	}

	// The context bounds every sweep: -timeout expiry and Ctrl-C both cancel
	// the in-flight experiment at its next point check.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if !*quiet {
		f.Progress = os.Stderr
	}
	for _, r := range selected {
		if err := r.Run(ctx, os.Stdout); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintln(os.Stderr, "dpbench: timeout exceeded during", r.ID)
			} else {
				fmt.Fprintln(os.Stderr, "dpbench:", err)
			}
			os.Exit(1)
		}
	}
}

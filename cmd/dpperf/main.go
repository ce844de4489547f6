// Command dpperf is the repo's benchmark: it runs the named workloads of
// internal/perfbench, verifies every result, and prints every end-to-end
// and per-layer metric by name with its unit.
//
//	go run ./cmd/dpperf -seed 1                 every workload, untraced then traced
//	go run ./cmd/dpperf -workload ge-cnc-fine,ge-fj-fine -no-trace
//	go run ./cmd/dpperf -seed 1 -out a.json     keep the result for -compare
//	go run ./cmd/dpperf -compare a.json b.json  apply the per-metric bounds
//	go run ./cmd/dpperf -list                   workload and metric names
//
// The benchmark driver's form (BENCHMARK.json) names one workload and one
// pass, and reads the last line of standard output:
//
//	go run ./cmd/dpperf --workload ge-cnc-fine --seed 7 --seconds 10 --trace 0
//
// See internal/perfbench/README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dpflow/internal/dist"
	"dpflow/internal/perfbench"
)

func main() {
	// The dist workload's coordinator self-execs this binary as its shard
	// workers; such a child never returns from here.
	dist.MaybeWorkerChild()

	workload := flag.String("workload", "", "comma-separated workload names (default: all)")
	seed := flag.Int64("seed", 1, "workload seed: instance seeds and serve job order derive from it")
	seconds := flag.Int("seconds", perfbench.RunSeconds, "run length the committed rep counts are scaled to")
	trace := flag.Int("trace", -1, "driver form: 0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics; the result is the last line of output")
	noTrace := flag.Bool("no-trace", false, "skip the traced pass")
	traceOut := flag.String("trace-out", "", "Chrome trace-event file of the traced pass (default: dpperf-trace.json under the temp directory; none in the driver form)")
	out := flag.String("out", "", "write the machine-readable result to this file")
	list := flag.Bool("list", false, "print workload and metric names and exit")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as generated from the same tables and exit")
	compare := flag.Bool("compare", false, "compare two results: dpperf -compare baseline.json candidate.json")
	flag.Parse()

	switch {
	case *list:
		perfbench.WriteList(os.Stdout)
		return
	case *manifest:
		m, err := perfbench.Manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(m)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		a, err := perfbench.Load(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := perfbench.Load(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		ok, err := perfbench.Compare(os.Stdout, a, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpperf: refusing to compare:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	cfg := perfbench.Config{Seed: *seed, Seconds: *seconds, TraceOut: *traceOut}
	if *workload != "" {
		cfg.Workloads = strings.Split(*workload, ",")
	}
	driver := *trace >= 0
	switch {
	case *trace == 0 || *noTrace:
		cfg.Trace = perfbench.TraceOff
	case *trace == 1:
		cfg.Trace = perfbench.TraceOnly
	}
	if driver && len(cfg.Workloads) != 1 {
		fatal(fmt.Errorf("-trace reports one workload: name it with -workload"))
	}
	if !driver && cfg.Trace != perfbench.TraceOff && cfg.TraceOut == "" {
		cfg.TraceOut = filepath.Join(os.TempDir(), "dpperf-trace.json")
	}

	res, err := perfbench.Run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := res.Save(*out); err != nil {
			fatal(err)
		}
	}
	if driver {
		line, err := res.Workloads[0].ContractLine(*trace == 1)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if n := res.Failed(); n > 0 {
		fmt.Fprintf(os.Stderr, "dpperf: %d ops failed\n", n)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpperf:", err)
	os.Exit(1)
}

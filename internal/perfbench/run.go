// Package perfbench is the repo's benchmark (cmd/dpperf is its thin main):
// seven named workloads, five bounded end-to-end metrics plus failed_frac,
// and a per-layer ledger. Every layer is measured from outside — by timing
// calls into exported functions, reading exported Stats/Counters snapshots
// and /metrics, and through bench.RunOpts.Trace — so the measured packages
// carry no benchmark code. See README.md.
package perfbench

import (
	"context"
	"fmt"
	"io"
	"maps"
	"runtime"
	"time"

	"dpflow/internal/exec"
)

// TraceMode selects which passes an invocation runs.
type TraceMode int

const (
	// TraceAfter runs the untraced pass at full length for the end-to-end
	// metrics, then a traced pass of a quarter of the reps for the
	// per-layer metrics.
	TraceAfter TraceMode = iota
	// TraceOff runs only the untraced pass.
	TraceOff
	// TraceOnly reports only per-layer metrics: a quarter-length untraced
	// pass (the reference for proc.trace_overhead_frac and the op-time
	// distribution) followed by the quarter-length traced pass.
	TraceOnly
)

// Config is one invocation.
type Config struct {
	Seed      int64
	Seconds   int      // run length the rep counts are scaled to; 0 = RunSeconds
	Workloads []string // empty = all
	Trace     TraceMode
	TraceOut  string // Chrome trace-event file of the traced passes; "" = none

	reps int // tests: ops per pass, overriding the committed counts
}

// workloadDeadline turns a hang into failed ops: once it passes, every
// remaining op of the workload fails without running.
const workloadDeadline = 120 * time.Second

// Workers is the load shape: min(nproc, 4) workers with GOMAXPROCS pinned
// to match, so numbers are overhead-over-serial at the host's own width,
// never oversubscription.
func Workers() int { return min(runtime.NumCPU(), 4) }

// Run measures the selected workloads and prints every metric by name to
// out as it goes.
func Run(ctx context.Context, cfg Config, out io.Writer) (*Result, error) {
	if cfg.Seconds <= 0 {
		cfg.Seconds = RunSeconds
	}
	var selected []*Workload
	if len(cfg.Workloads) == 0 {
		for i := range Workloads {
			selected = append(selected, &Workloads[i])
		}
	}
	for _, name := range cfg.Workloads {
		w, err := WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		selected = append(selected, w)
	}

	workers := Workers()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	// dist.Runner leases from the process-wide executor, which sizes itself
	// on first use: touch it now that GOMAXPROCS is pinned, and before the
	// goroutine baseline is read.
	exec.Default()
	baseline := runtime.NumGoroutine()

	res := &Result{Schema: Schema, Host: fingerprint(workers), Seed: cfg.Seed, Seconds: cfg.Seconds}
	fmt.Fprintf(out, "dpperf: seed %d, %d workers, GOMAXPROCS %d on %d cores, %s %s/%s, commit %s\n",
		cfg.Seed, workers, res.Host.GoMaxProcs, res.Host.Cores, res.Host.GoVersion, res.Host.OS, res.Host.Arch, res.Host.Commit)
	fmt.Fprintln(out, "alloc_mb_per_op and proc.* cover the load-generating process only; dist worker processes are excluded.")

	recs := map[string]*Recorder{}
	var order []string
	for _, w := range selected {
		wr := runWorkload(ctx, cfg, w, workers, recs)
		if leaked := settleGoroutines(baseline); leaked > 0 {
			wr.Failed++
			wr.Errors = append(wr.Errors, fmt.Sprintf("%d goroutines leaked beyond the baseline of %d", leaked, baseline))
		}
		wr.Print(out)
		res.Workloads = append(res.Workloads, wr)
		order = append(order, w.Name)
	}
	if cfg.TraceOut != "" && len(recs) > 0 {
		if err := WriteChromeTrace(cfg.TraceOut, recs, order); err != nil {
			return res, fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(out, "\ntrace written to %s\n", cfg.TraceOut)
	}
	return res, nil
}

// runWorkload runs the passes cfg.Trace asks for on one workload.
func runWorkload(ctx context.Context, cfg Config, w *Workload, workers int, recs map[string]*Recorder) WorkloadResult {
	ctx, cancel := context.WithTimeout(ctx, workloadDeadline)
	defer cancel()

	full := max(Rounds, w.Reps*cfg.Seconds/RunSeconds)
	quarter := max(Rounds, full/4)
	if cfg.reps > 0 {
		full, quarter = cfg.reps, cfg.reps
	}
	run := runCompute
	switch {
	case w.IsServe():
		run = runServe
	case w.IsDist():
		run = runDist
	}

	wr := WorkloadResult{Name: w.Name}
	collect := func(p *pass) {
		wr.Attempted += len(p.samples)
		wr.Failed += p.failed()
		wr.Errors = append(wr.Errors, p.errs...)
	}
	untracedReps := full
	if cfg.Trace == TraceOnly {
		untracedReps = quarter
	}
	u := run(ctx, w, workers, cfg.Seed, untracedReps, nil)
	collect(u)
	if cfg.Trace != TraceOnly {
		wr.EndToEnd = withUnits(EndToEnd, u.endToEnd(-1), u.spreads())
	}
	if cfg.Trace == TraceOff {
		return wr
	}

	rec := NewRecorder()
	recs[w.Name] = rec
	t := run(ctx, w, workers, cfg.Seed, quarter, rec)
	collect(t)
	micro, err := microProbes(w, workers)
	if err != nil {
		wr.Failed++
		wr.Errors = append(wr.Errors, err.Error())
	}
	wr.PerLayer = withUnits(PerLayer, perLayer(u, t, micro), nil)
	return wr
}

// microProbes runs the unit-cost probes of the layers w exercises.
func microProbes(w *Workload, workers int) (map[string]float64, error) {
	ex := exec.New(workers)
	defer ex.Close()
	out := map[string]float64{}
	add := func(m map[string]float64, err error) error {
		maps.Copy(out, m)
		return err
	}
	if err := add(execMicro(ex)); err != nil {
		return out, err
	}
	switch {
	case w.IsServe():
		if err := add(cncMicro(ex)); err != nil {
			return out, err
		}
		return out, add(admissionMicro())
	case w.IsDist():
		b := mustBench(w.Bench)
		return out, add(distMicro(b, geometryOf(b, w.N, w.Base).tiles))
	}
	b := mustBench(w.Bench)
	maps.Copy(out, kernelMicro(b, geometryOf(b, w.N, w.Base).side))
	if w.Variant.IsCnC() {
		return out, add(cncMicro(ex))
	}
	return out, add(forkjoinMicro(ex))
}

// settleGoroutines waits briefly for goroutines the workload started to
// exit (closed connections and executors unwind asynchronously) and
// returns how many remain beyond the baseline.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

package dist

import (
	"context"
	"fmt"
	"syscall"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/core"
)

// Runner drives registered benchmarks through the sharded runtime inside
// bench.Check — a hard deadline, a progress watchdog that remote waits
// defer, optional discipline checking, verification and its riders — and
// adds the distributed rider: no worker outlives its coordinator.
type Runner struct {
	// Shards is the worker-process count (default Options default, 2).
	Shards int
	// Workers is the CnC worker-goroutine count in the coordinator
	// (default 4).
	Workers int
	// Timeout is the hard per-run deadline (default 120s — respawn
	// ladders legitimately take seconds).
	Timeout time.Duration
	// Discipline is bench.Check's Detect: a dataflow-discipline checker on
	// every graph.
	Discipline bool
	// Options seeds the coordinator configuration (Shards overridden by
	// Runner.Shards when set).
	Options Options
}

// RunResult reports one distributed run: the envelope's report (Wall is
// the graph execution alone, Stats the graph's counters) plus the
// coordinator's.
type RunResult struct {
	bench.Checked
	Bench string
	Seed  int64
	// Counters is the coordinator's traffic/recovery activity.
	Counters CounterSnapshot
	// Degraded is how many shards degraded (stopped being mirrored).
	Degraded int
}

// Drive runs benchmark b (size n, base tile base, instance seed seed)
// distributed across the runner's shards and classifies the outcome. arm,
// when non-nil, sees the coordinator before the run starts — the seam
// process-level faults are injected through (SetFrameHook, KillWorker).
// Err is nil exactly when the run completed, verified, kept the
// envelope's riders and orphaned no workers.
func (r *Runner) Drive(b bench.Benchmark, n, base int, seed int64, arm func(*Coordinator)) RunResult {
	res := RunResult{Bench: b.Name(), Seed: seed}
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	workers := r.Workers
	if workers <= 0 {
		workers = 4
	}

	inst, err := b.NewInstance(n, base, seed)
	if err != nil {
		res.Err = fmt.Errorf("dist: %s instance: %w", b.Name(), err)
		return res
	}
	opts := r.Options
	if r.Shards > 0 {
		opts.Shards = r.Shards
	}
	coord, err := NewCoordinator(opts)
	if err != nil {
		res.Err = fmt.Errorf("dist: coordinator: %w", err)
		return res
	}
	// Close before returning on every path: orphan-freedom is part of the
	// result contract, not a caller obligation.
	defer coord.Close()
	if arm != nil {
		arm(coord)
	}

	check := bench.Check{Timeout: timeout, Detect: r.Discipline}
	res.Checked = check.Run(context.Background(), inst, core.NativeCnC, bench.RunOpts{Workers: workers, Tune: coord.Attach})
	res.Counters = coord.Counters().Snapshot()
	res.Degraded = coord.Degraded()
	if res.Err != nil {
		res.Err = fmt.Errorf("dist: %s (seed %d): %w", b.Name(), seed, res.Err)
	}
	pids := coord.WorkerPIDs()
	coord.Close()
	if res.Err == nil {
		if leaked := livePIDs(pids); len(leaked) > 0 {
			res.Err = fmt.Errorf("dist: %s (seed %d): orphaned worker PIDs %v after Close", b.Name(), seed, leaked)
		}
	}
	return res
}

// livePIDs filters pids down to processes that still exist (signal 0
// probe). Reaped children report ESRCH; anything else still holds a
// process-table slot.
func livePIDs(pids []int) []int {
	var live []int
	for _, pid := range pids {
		if err := syscall.Kill(pid, syscall.Signal(0)); err == nil {
			live = append(live, pid)
		}
	}
	return live
}

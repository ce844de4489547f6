package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"syscall"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/chaos"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/determinacy"
)

// Runner drives registered benchmarks through the sharded runtime, with
// the same liveness harness chaos.Runner wraps around in-process runs: a
// hard deadline, a progress watchdog (remote-wait aware here), optional
// discipline checking, and verification against the serial reference.
type Runner struct {
	// Shards is the worker-process count (default Options default, 2).
	Shards int
	// Workers is the CnC worker-goroutine count in the coordinator
	// (default 4).
	Workers int
	// Timeout is the hard per-run deadline (default 120s — respawn
	// ladders legitimately take seconds).
	Timeout time.Duration
	// StallWindow is the watchdog's no-progress window (default 2s);
	// remote waits defer it rather than tripping it.
	StallWindow time.Duration
	// Discipline installs a dataflow-discipline checker on every graph.
	Discipline bool
	// Options seeds the coordinator configuration (Shards overridden by
	// Runner.Shards when set).
	Options Options
}

// RunResult reports one distributed run.
type RunResult struct {
	Bench string
	Fault string
	Seed  int64
	// Wall is the graph execution time (excluding instance setup and the
	// serial reference).
	Wall time.Duration
	// Injections / Fired mirror chaos.Result: what the fault actually did.
	Injections int
	Fired      []string
	// Err is nil exactly when the run completed, verified, kept the
	// dataflow discipline, leaked no items and orphaned no workers.
	Err error
	// Stalled / Blocked / DeadlineFired mirror chaos.Result.
	Stalled       bool
	Blocked       []string
	DeadlineFired bool
	// Counters is the coordinator's traffic/recovery activity.
	Counters CounterSnapshot
	// Degraded is how many shards degraded (stopped being mirrored).
	Degraded int
	// Watchdog reports the stall-source accounting (remote-wait deferrals).
	Watchdog cnc.WatchdogStats
	// Violations are discipline findings (expected empty).
	Violations []error
	// Stats is the last graph's runtime counters.
	Stats cnc.Stats
}

// Drive runs benchmark b (size n, base tile base, instance seed seed)
// distributed across the runner's shards, optionally under a process-level
// fault, and classifies the outcome. fault may be nil for a clean run.
func (r *Runner) Drive(b bench.Benchmark, n, base int, seed int64, fault chaos.DistFault) RunResult {
	res := RunResult{Bench: b.Name(), Seed: seed}
	if fault != nil {
		res.Fault = fault.Name()
	}
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

	var probe *chaos.Probe
	if fault != nil {
		probe = fault.ArmDist(coord, rand.New(rand.NewSource(seed)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	var wd *cnc.Watchdog
	var graph *cnc.Graph
	var checkers []*determinacy.DisciplineChecker
	tune := func(g *cnc.Graph) {
		graph = g
		coord.Attach(g)
		if r.Discipline {
			dc := determinacy.NewDisciplineChecker()
			g.WithDisciplineCheck(dc)
			checkers = append(checkers, dc)
		}
		if wd != nil {
			wd.Stop()
		}
		wd = cnc.NewWatchdog(cnc.WatchdogConfig{
			Progress: func() uint64 { return g.Stats().ItemsPut },
			Blocked:  g.Blocked,
			Window:   r.StallWindow,
			OnStall:  func([]string) { cancel() },
			// Puts stalled because a step sits inside a backend put (its
			// shard's buffer is full), the end-of-run flush, or a backoff
			// window is remote waiting, not livelock.
			RemoteBusy: g.BackendBusy,
		})
		wd.Start()
	}

	start := time.Now()
	_, runErr := inst.Run(ctx, core.NativeCnC, bench.RunOpts{Workers: workers, Tune: tune})
	res.Wall = time.Since(start)
	if wd != nil {
		wd.Stop()
		res.Stalled, res.Blocked = wd.Stalled()
		res.Watchdog = wd.Stats()
	}
	if probe != nil {
		res.Injections = probe.Count()
		res.Fired = probe.Fired()
	}
	res.DeadlineFired = errors.Is(runErr, context.DeadlineExceeded) || ctx.Err() == context.DeadlineExceeded
	res.Counters = coord.Counters().Snapshot()
	res.Degraded = coord.Degraded()

	var stats cnc.Stats
	if graph != nil {
		stats = graph.Stats()
		res.Stats = stats
	}
	for _, dc := range checkers {
		res.Violations = append(res.Violations, dc.Violations()...)
	}

	switch {
	case runErr != nil:
		res.Err = fmt.Errorf("dist: %s under fault %s (seed %d, %d injections): %w",
			b.Name(), res.Fault, seed, res.Injections, runErr)
	default:
		if verr := inst.Verify(); verr != nil {
			res.Err = fmt.Errorf("dist: fault %s corrupted %s (seed %d, fired %v): %w",
				res.Fault, b.Name(), seed, res.Fired, verr)
		}
	}
	// The same riders chaos.Runner enforces: a verified run must also be
	// leak-free and discipline-clean, faults or no faults.
	if res.Err == nil && graph != nil && graph.HasGetCounts() && stats.LiveItems != 0 {
		res.Err = fmt.Errorf("dist: %s (seed %d): run verified but leaked %d of %d items",
			b.Name(), seed, stats.LiveItems, stats.ItemsPut)
	}
	if res.Err == nil && len(res.Violations) > 0 {
		res.Err = fmt.Errorf("dist: %s (seed %d): run verified but broke dataflow discipline (%d violations): %w",
			b.Name(), seed, len(res.Violations), res.Violations[0])
	}
	// And the distributed rider: no worker may outlive its coordinator.
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

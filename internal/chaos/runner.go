package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dpflow/internal/cnc"
	"dpflow/internal/determinacy"
)

// Target is one workload the chaos runner can drive: a benchmark run plus
// the oracle that checks its result.
type Target struct {
	// Name identifies the target in results.
	Name string
	// Run executes the workload once under ctx. It must call tune with
	// every cnc.Graph it builds, before running it — the tune parameter
	// of gep.Flow.Run and bench.RunOpts.Tune — and leave its output where
	// Verify can inspect it.
	Run func(ctx context.Context, tune func(*cnc.Graph)) error
	// Verify checks the result of a nominally successful run against an
	// independent reference (typically matrix.Equal versus the serial
	// implementation). It runs only when Run returned nil.
	Verify func() error
}

// Runner drives targets under injected faults with a liveness harness
// around every run: a hard deadline (the run can never hang) and a
// progress watchdog that cancels a stalled run long before the deadline.
type Runner struct {
	// Timeout is the hard per-run deadline (default 30s). In a passing
	// run it must never fire; the watchdog is the intended stall exit.
	Timeout time.Duration
	// StallWindow is the watchdog's no-progress window (default 2s).
	StallWindow time.Duration
	// Retry is the step retry budget installed on every graph of a run
	// under a Recoverable fault; set it at least as high as the fault's
	// injection budget to make recovery certain.
	Retry int
	// Discipline installs a fresh dataflow-discipline checker
	// (determinacy.DisciplineChecker) on every graph of the run. Any
	// write-once or get-count violation the checker records fails the run
	// even when the result verified — injected faults must never be able
	// to break the discipline, only to fail or stall the run.
	Discipline bool
}

// Result reports one driven run.
type Result struct {
	Target string
	Fault  string
	Seed   int64
	// Injections is how many times the fault actually fired.
	Injections int
	// Fired lists where ("step@tag" / "coll[key]") it fired.
	Fired []string
	// Err is nil exactly when the run completed and verified. Any injected
	// failure that surfaced — directly, via a deadlock it caused, or via a
	// corrupted result — is wrapped so errors.Is(Err, ErrInjected) or the
	// fault name identifies it.
	Err error
	// Stalled reports that the watchdog cancelled the run.
	Stalled bool
	// Blocked is the wait-state dump taken at stall time.
	Blocked []string
	// DeadlineFired reports that the hard deadline expired — a harness
	// failure in any expected scenario, fatal in tests.
	DeadlineFired bool
	// LiveItems, PeakLiveItems, ItemsFreed, and BackpressureStalls are the
	// memory accounting of the last graph the run built. After a verified
	// run of a graph with declared get-counts, LiveItems must be 0 — the
	// leak-freedom claim the runner enforces itself.
	LiveItems          int64
	PeakLiveItems      int64
	ItemsFreed         int64
	BackpressureStalls int64
	// Violations are the dataflow-discipline findings across every graph
	// the run built (always empty unless Runner.Discipline is set; expected
	// empty even then — the runtimes must keep the discipline under every
	// fault).
	Violations []error
	// Discipline is the checker activity of the last graph, evidence the
	// checking was live (Puts > 0) rather than vacuously clean.
	Discipline determinacy.DisciplineStats
}

// Drive runs target once under fault with the given seed and classifies
// the outcome. Every run ends in bounded time: normal completion, a
// precise error, watchdog cancellation, or (never, if the harness is
// healthy) the hard deadline.
func (r *Runner) Drive(target Target, fault Fault, seed int64) Result {
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	rng := rand.New(rand.NewSource(seed))
	res := Result{Target: target.Name, Fault: fault.Name(), Seed: seed}

	var probe *Probe
	var wd *cnc.Watchdog
	var graph *cnc.Graph
	var checkers []*determinacy.DisciplineChecker
	tune := func(g *cnc.Graph) {
		graph = g
		if r.Discipline {
			dc := determinacy.NewDisciplineChecker()
			g.WithDisciplineCheck(dc)
			checkers = append(checkers, dc)
		}
		probe = fault.Arm(g, rng)
		if r.Retry > 0 && fault.Recoverable() {
			g.SetRetry(r.Retry)
		}
		if wd != nil {
			wd.Stop()
		}
		wd = cnc.NewWatchdog(cnc.WatchdogConfig{
			// ItemsPut rather than StepsDone: a re-put livelock keeps
			// retiring steps without producing data, and data is the
			// progress that matters.
			Progress: func() uint64 { return g.Stats().ItemsPut },
			Blocked:  g.Blocked,
			Window:   r.StallWindow,
			OnStall:  func([]string) { cancel() },
		})
		wd.Start()
	}

	err := target.Run(ctx, tune)
	if wd != nil {
		wd.Stop()
		res.Stalled, res.Blocked = wd.Stalled()
	}
	if probe != nil {
		res.Injections = probe.Count()
		res.Fired = probe.Fired()
	}
	res.DeadlineFired = errors.Is(err, context.DeadlineExceeded) || ctx.Err() == context.DeadlineExceeded

	var stats cnc.Stats
	if graph != nil {
		stats = graph.Stats()
		res.LiveItems = stats.LiveItems
		res.PeakLiveItems = stats.PeakLiveItems
		res.ItemsFreed = stats.ItemsFreed
		res.BackpressureStalls = stats.BackpressureStalls
	}
	for _, dc := range checkers {
		res.Violations = append(res.Violations, dc.Violations()...)
	}
	if n := len(checkers); n > 0 {
		res.Discipline = checkers[n-1].Stats()
	}

	switch {
	case err != nil:
		res.Err = fmt.Errorf("chaos: %s under fault %s (seed %d, %d injections): %w",
			target.Name, fault.Name(), seed, res.Injections, err)
	case target.Verify != nil:
		if verr := target.Verify(); verr != nil {
			res.Err = fmt.Errorf("%w: fault %s corrupted %s (seed %d, fired %v): %v",
				ErrInjected, fault.Name(), target.Name, seed, res.Fired, verr)
		}
	}
	// Leak freedom rides along with every verified run: a graph with
	// declared get-counts that survived the fault must also have freed
	// every item it put. A leak here means a fault path (retry, abort
	// re-read, dropped tag, delayed put) broke the release accounting.
	if res.Err == nil && graph != nil && graph.HasGetCounts() {
		if stats.LiveItems != 0 {
			res.Err = fmt.Errorf("chaos: %s under fault %s (seed %d): run verified but leaked %d of %d items (freed %d)",
				target.Name, fault.Name(), seed, stats.LiveItems, stats.ItemsPut, stats.ItemsFreed)
		}
	}
	// The dataflow discipline rides along the same way: faults may fail or
	// stall a run, but a verified run that broke write-once or overdrew a
	// get-count is a determinism bug regardless of what was injected.
	if res.Err == nil && len(res.Violations) > 0 {
		res.Err = fmt.Errorf("chaos: %s under fault %s (seed %d): run verified but broke dataflow discipline (%d violations): %w",
			target.Name, fault.Name(), seed, len(res.Violations), res.Violations[0])
	}
	return res
}

package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
)

// Runner drives benchmark instances under injected faults through
// bench.Check: a hard deadline (the run can never hang), a progress
// watchdog that cancels a stalled run long before it, verification, and
// the leak, peak and discipline riders on every verified run.
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
	// Discipline is bench.Check's Detect: a fresh dataflow-discipline
	// checker on every graph. Injected faults may fail or stall a run, but
	// a verified run that broke write-once or overdrew a get-count fails.
	Discipline bool
}

// Result reports one driven run: the envelope's report plus what the fault
// did.
type Result struct {
	bench.Checked
	Target string
	Fault  string
	Seed   int64
	// Injections is how many times the fault actually fired.
	Injections int
	// Fired lists where ("step@tag" / "coll[key]") it fired.
	Fired []string
}

// Drive runs inst once under variant v with workers workers and fault
// armed on every graph, and classifies the outcome. Every run ends in
// bounded time: normal completion, a precise error, watchdog cancellation,
// or (never, if the harness is healthy) the hard deadline. Err wraps the
// run's identity; a result the fault corrupted wraps ErrInjected.
func (r *Runner) Drive(target string, inst bench.Instance, v core.Variant, workers int, fault Fault, seed int64) Result {
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	var probe *Probe
	tune := func(g *cnc.Graph) {
		probe = fault.Arm(g, rng)
		if r.Retry > 0 && fault.Recoverable() {
			g.SetRetry(r.Retry)
		}
	}
	check := bench.Check{Timeout: timeout, StallWindow: r.StallWindow, Detect: r.Discipline}
	res := Result{Target: target, Fault: fault.Name(), Seed: seed,
		Checked: check.Run(context.Background(), inst, v, bench.RunOpts{Workers: workers, Tune: tune})}
	if probe != nil {
		res.Injections, res.Fired = probe.Count(), probe.Fired()
	}
	switch {
	case errors.Is(res.Err, bench.ErrVerify):
		res.Err = fmt.Errorf("%w: fault %s corrupted %s (seed %d, fired %v): %w",
			ErrInjected, fault.Name(), target, seed, res.Fired, res.Err)
	case res.Err != nil:
		res.Err = fmt.Errorf("chaos: %s under fault %s (seed %d, %d injections): %w",
			target, fault.Name(), seed, res.Injections, res.Err)
	}
	return res
}

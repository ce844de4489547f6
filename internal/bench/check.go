package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/determinacy"
	"dpflow/internal/gep"
)

// ErrVerify marks a run that completed but whose result disagrees with the
// serial reference (Checked.Err wraps it together with Verify's error).
var ErrVerify = errors.New("bench: verify")

// Check is the one envelope a checked run goes through: the chaos and dist
// runners, the job service, dpverify and the memory and dist reports all
// drive an Instance through Check.Run and hold no copy of it. Around one
// Instance.Run it sets a hard deadline and a progress watchdog, under
// Detect it arms the determinacy detectors, and after a nil Run it verifies
// the result. A verified run must then also keep three riders: a graph with
// declared get-counts leaked no item, a memory limit the run never stalled
// on was never exceeded (BackpressureStalls == 0 ⇒ PeakLiveBytes ≤ limit),
// and no detector found anything.
type Check struct {
	// Timeout is the hard deadline on the run; 0 leaves only ctx's.
	Timeout time.Duration
	// StallWindow is how long the run's progress counter may stand still
	// before the watchdog cancels the run: ItemsPut of the newest CnC graph
	// (not StepsDone — a re-put livelock keeps retiring steps without
	// producing data), the pool's executed tasks for fork-join. Remote waits
	// (Graph.BackendBusy) defer it. 0 means 2s, negative no watchdog;
	// serial runs have no counter and never get one.
	StallWindow time.Duration
	// Detect installs a fresh dataflow-discipline checker on every graph of
	// a Native, Tuner or Manual CnC run (NonBlocking declares no get-counts
	// to check) and a determinacy-race detector on opts.Pool for
	// OMPTasking. A detection fails a verified run, and so does a detector
	// that saw nothing: a clean report from a check that never ran is not a
	// pass.
	Detect bool
}

// Checked reports one checked run.
type Checked struct {
	// CnCStats is what Run returned, its counters replaced by those of the
	// last graph the run built (zero for non-CnC variants).
	gep.CnCStats
	// Wall is the duration of the Run call alone: no instance setup, no
	// Verify.
	Wall time.Duration
	// Err is nil exactly when the run returned nil, verified and kept every
	// rider. A Verify failure wraps ErrVerify; a watchdog cancellation
	// wraps the run's context error.
	Err error
	// Stalled reports that the watchdog cancelled the run; Blocked is the
	// wait-state dump it took.
	Stalled bool
	Blocked []string
	// DeadlineFired reports that a deadline expired — Timeout or ctx's.
	DeadlineFired bool
	// Violations are the discipline findings across every graph of the run;
	// Discipline is the last checker's activity. Both stay empty without
	// Detect.
	Violations []error
	Discipline determinacy.DisciplineStats
}

// Run executes inst under variant v inside the envelope. opts.Tune, when
// set, sees every graph before the envelope arms it.
func (c Check) Run(ctx context.Context, inst Instance, v core.Variant, opts RunOpts) (out Checked) {
	var cancel context.CancelFunc
	if c.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// watch replaces the watchdog: the newest graph of a multi-graph run
	// (the tuner probes first) is the one making progress.
	var wd *cnc.Watchdog
	watch := func(cfg cnc.WatchdogConfig) {
		if wd != nil {
			wd.Stop()
		}
		if c.StallWindow < 0 {
			return
		}
		cfg.Window, cfg.OnStall = c.StallWindow, func([]string) { cancel() }
		wd = cnc.NewWatchdog(cfg)
		wd.Start()
	}
	discipline := c.Detect && v.IsCnC() && v != core.NonBlockingCnC
	var last *cnc.Graph
	var checkers []*determinacy.DisciplineChecker
	tune := opts.Tune
	opts.Tune = func(g *cnc.Graph) {
		if tune != nil {
			tune(g)
		}
		last = g
		if discipline {
			dc := determinacy.NewDisciplineChecker()
			g.WithDisciplineCheck(dc)
			checkers = append(checkers, dc)
		}
		watch(cnc.WatchdogConfig{
			Progress:   func() uint64 { return g.Stats().ItemsPut },
			Blocked:    g.Blocked,
			RemoteBusy: g.BackendBusy,
		})
	}
	var race *determinacy.Detector
	if pool := opts.Pool; v == core.OMPTasking && pool != nil {
		if c.Detect {
			race = determinacy.NewDetector()
			defer pool.WithRaceDetection(pool.RaceDetector())
			pool.WithRaceDetection(race)
		}
		watch(cnc.WatchdogConfig{Progress: func() uint64 { return pool.Stats().Executed }})
	}

	start := time.Now()
	out.CnCStats, out.Err = inst.Run(ctx, v, opts)
	out.Wall = time.Since(start)
	if wd != nil {
		wd.Stop()
		out.Stalled, out.Blocked = wd.Stalled()
	}
	out.DeadlineFired = errors.Is(out.Err, context.DeadlineExceeded) || ctx.Err() == context.DeadlineExceeded
	if last != nil {
		out.Stats = last.Stats()
	}
	for _, dc := range checkers {
		out.Violations = append(out.Violations, dc.Violations()...)
	}
	if n := len(checkers); n > 0 {
		out.Discipline = checkers[n-1].Stats()
	}
	switch {
	case out.Err != nil && out.Stalled:
		out.Err = fmt.Errorf("bench: watchdog: no progress, run cancelled: %w", out.Err)
	case out.Err == nil:
		out.Err = out.verify(inst, last, discipline, race)
	}
	return out
}

// verify checks a run that returned nil: its result, then the riders.
// discipline reports that every graph of the run had a checker.
func (out *Checked) verify(inst Instance, last *cnc.Graph, discipline bool, race *determinacy.Detector) error {
	if err := inst.Verify(); err != nil {
		return fmt.Errorf("%w: %w", ErrVerify, err)
	}
	s := out.Stats
	if last != nil && last.HasGetCounts() && s.LiveItems != 0 {
		return fmt.Errorf("bench: run verified but leaked %d of %d items (freed %d)", s.LiveItems, s.ItemsPut, s.ItemsFreed)
	}
	if last != nil && last.MemoryLimit() > 0 && s.BackpressureStalls == 0 && s.PeakLiveBytes > last.MemoryLimit() {
		return fmt.Errorf("bench: run verified but peaked at %d live bytes over its %d-byte limit without a stall", s.PeakLiveBytes, last.MemoryLimit())
	}
	if len(out.Violations) > 0 {
		return fmt.Errorf("bench: run verified but broke dataflow discipline (%d violations): %w", len(out.Violations), out.Violations[0])
	}
	if discipline && last == nil {
		return errors.New("bench: discipline checking is vacuous: the run built no graph")
	}
	if d := out.Discipline; discipline && (d.Puts == 0 || d.Releases == 0) {
		return fmt.Errorf("bench: discipline checking is vacuous: %+v", d)
	}
	if race != nil {
		if err := race.Err(); err != nil {
			return fmt.Errorf("bench: determinacy race: %w", err)
		}
		if st := race.Stats(); st.Accesses == 0 {
			return fmt.Errorf("bench: race detection is vacuous: %+v", st)
		}
	}
	return nil
}

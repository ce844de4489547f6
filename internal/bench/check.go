package bench

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
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
	// before the watchdog cancels the run: ItemsPut of the run's CnC graph
	// (not StepsDone — a re-put livelock keeps retiring steps without
	// producing data), the pool's executed tasks for fork-join. Remote waits
	// (Graph.BackendBusy) defer it. 0 means 2s, negative no watchdog;
	// serial runs have no counter and never get one.
	StallWindow time.Duration
	// Detect installs a dataflow-discipline checker on the graph of a
	// Native, Tuner or Manual CnC run (NonBlocking declares no get-counts
	// to check) and a determinacy-race detector on opts.Pool for
	// OMPTasking. A detection fails a verified run, and so does a detector
	// that saw nothing: a clean report from a check that never ran is not a
	// pass.
	Detect bool
}

// Checked reports one checked run.
type Checked struct {
	// CnCStats is what Run returned, its counters replaced by those of the
	// graph the run built (zero for non-CnC variants).
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
	// Violations are the discipline findings on the run's graph;
	// Discipline is its checker's activity. Both stay empty without Detect.
	Violations []error
	Discipline determinacy.DisciplineStats
}

// Run executes inst under variant v inside the envelope. opts.Tune, when
// set, sees the run's graph before the envelope arms it.
func (c Check) Run(ctx context.Context, inst Instance, v core.Variant, opts RunOpts) (out Checked) {
	var cancel context.CancelFunc
	if c.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	var w *watch
	if c.StallWindow >= 0 {
		w = &watch{window: cmp.Or(c.StallWindow, 2*time.Second), cancel: cancel}
	}
	discipline := c.Detect && v.IsCnC() && v != core.NonBlockingCnC
	var graph *cnc.Graph
	var dc *determinacy.DisciplineChecker
	tune := opts.Tune
	opts.Tune = func(g *cnc.Graph) {
		if tune != nil {
			tune(g)
		}
		graph = g
		if discipline {
			dc = determinacy.NewDisciplineChecker()
			g.WithDisciplineCheck(dc)
		}
		if w != nil {
			w.graph = g
			w.start()
		}
	}
	var race *determinacy.Detector
	if pool := opts.Pool; v == core.OMPTasking && pool != nil {
		if c.Detect {
			race = determinacy.NewDetector()
			defer pool.WithRaceDetection(pool.RaceDetector())
			pool.WithRaceDetection(race)
		}
		if w != nil {
			w.pool = pool
			w.start()
		}
	}

	start := time.Now()
	out.CnCStats, out.Err = inst.Run(ctx, v, opts)
	out.Wall = time.Since(start)
	if w != nil {
		out.Stalled, out.Blocked = w.finish()
	}
	out.DeadlineFired = errors.Is(out.Err, context.DeadlineExceeded) || ctx.Err() == context.DeadlineExceeded
	if graph != nil {
		out.Stats = graph.Stats()
	}
	if dc != nil {
		out.Violations = dc.Violations()
		out.Discipline = dc.Stats()
	}
	switch {
	case out.Err != nil && out.Stalled:
		out.Err = fmt.Errorf("bench: watchdog: no progress, run cancelled: %w", out.Err)
	case out.Err == nil:
		out.Err = out.verify(inst, graph, discipline, race)
	}
	return out
}

// watch is a checked run's progress watch: one goroutine, started by the
// run's graph (or its fork-join pool), that samples a progress
// counter every window/8 (1ms at least) and cancels the run once the
// counter has stood still for window. A deadlock quiesces and the runtime
// reports it itself; a livelock — workers busy, no data produced — never
// quiesces, and this is what ends it.
type watch struct {
	window time.Duration
	cancel context.CancelFunc
	// graph (set by the wrapped Tune) or pool is the run's, set before
	// start.
	graph *cnc.Graph
	pool  *forkjoin.Pool

	started    bool
	stop, done chan struct{}
	// stalled and blocked are written by the loop and read after done.
	stalled bool
	blocked []string
}

// start launches the loop. Tune or Run's setup calls it once, from the
// run's own goroutine.
func (w *watch) start() {
	w.started = true
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	go w.loop()
}

// finish stops the loop, waits for it to exit, and reports what it saw.
func (w *watch) finish() (bool, []string) {
	if !w.started {
		return false, nil
	}
	close(w.stop)
	<-w.done
	return w.stalled, w.blocked
}

// sample reads the progress counter Check.StallWindow names: the graph's
// ItemsPut, else the pool's executed tasks.
func (w *watch) sample() uint64 {
	if w.graph != nil {
		return w.graph.Stats().ItemsPut
	}
	return w.pool.Stats().Executed
}

// loop anchors the window on the last change of the counter — arming time
// if it never moves — and fires at most once.
func (w *watch) loop() {
	defer close(w.done)
	tick := time.NewTicker(max(w.window/8, time.Millisecond))
	defer tick.Stop()
	last := w.sample()
	lastChange, wasBusy := time.Now(), false
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
		// A run parked inside its item backend restarts the window, up to
		// the first poll that finds it out: the transport's own deadlines
		// own that wait, which may sit out a retry backoff far longer than
		// the window.
		cur := w.sample()
		busy := w.graph != nil && w.graph.BackendBusy() > 0
		if cur != last || busy || wasBusy {
			last, lastChange, wasBusy = cur, time.Now(), busy
			continue
		}
		if time.Since(lastChange) < w.window {
			continue
		}
		if w.graph != nil {
			w.blocked = w.graph.Blocked()
		}
		w.stalled = true
		w.cancel()
		return
	}
}

// verify checks a run that returned nil: its result, then the riders.
// discipline reports that the run's graph had a checker.
func (out *Checked) verify(inst Instance, g *cnc.Graph, discipline bool, race *determinacy.Detector) error {
	if err := inst.Verify(); err != nil {
		return fmt.Errorf("%w: %w", ErrVerify, err)
	}
	s := out.Stats
	if g != nil && g.HasGetCounts() && s.LiveItems != 0 {
		return fmt.Errorf("bench: run verified but leaked %d of %d items (freed %d)", s.LiveItems, s.ItemsPut, s.ItemsFreed)
	}
	if g != nil && g.MemoryLimit() > 0 && s.BackpressureStalls == 0 && s.PeakLiveBytes > g.MemoryLimit() {
		return fmt.Errorf("bench: run verified but peaked at %d live bytes over its %d-byte limit without a stall", s.PeakLiveBytes, g.MemoryLimit())
	}
	if len(out.Violations) > 0 {
		return fmt.Errorf("bench: run verified but broke dataflow discipline (%d violations): %w", len(out.Violations), out.Violations[0])
	}
	if discipline && g == nil {
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

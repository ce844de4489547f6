package cnc

import (
	"sync"
	"time"
)

// WatchdogConfig configures a progress watchdog.
//
// The watchdog covers the liveness failure the runtime cannot detect
// itself. A graph that quiesces with parked instances is a *deadlock*: the
// runtime already turns it into a precise DeadlockError. A graph that
// never quiesces because workers keep busy without advancing — the
// non-blocking variant re-putting tags whose dependencies never arrive is
// the canonical case — is a *livelock*: steps run, counters like
// StepsStarted grow, but no new results appear. The watchdog samples a
// progress counter and declares a stall when it stops moving for Window.
type WatchdogConfig struct {
	// Progress returns a monotone counter of real progress. For CnC graphs
	// Stats.StepsDone is the issue-level default; use ItemsPut to
	// catch re-put livelocks, where failed attempts still retire "done"
	// steps without producing data.
	Progress func() uint64
	// Blocked, when non-nil, is sampled once at stall time to dump the
	// wait state (Graph.Blocked).
	Blocked func() []string
	// Window is how long Progress may stand still before the watchdog
	// declares a stall (default 2s).
	Window time.Duration
	// Poll is the sampling period (default Window/8, minimum 1ms).
	Poll time.Duration
	// OnStall, when non-nil, runs exactly once, on the watchdog goroutine,
	// when the stall is declared — typically a context.CancelFunc so the
	// stalled run drains and returns instead of hanging.
	OnStall func(blocked []string)
	// RemoteBusy, when non-nil, is sampled at every would-be stall: a
	// nonzero value means the run is parked inside a remote operation
	// (Graph.BackendBusy for distributed runs) — possibly sitting out a
	// retry/backoff window far longer than Window — not livelocked. The
	// watchdog defers the stall verdict, counts the deferral in Stats, and
	// restarts its window, so transport stalls surface through the
	// transport's own deadline machinery instead of as a false livelock.
	RemoteBusy func() int64
}

// WatchdogStats counts what the watchdog observed while monitoring one run.
type WatchdogStats struct {
	// RemoteWaitDeferrals is how many times a would-be stall verdict was
	// deferred because RemoteBusy reported in-flight remote operations —
	// the "waiting on the backend" vs livelock distinction, made visible.
	RemoteWaitDeferrals uint64
}

// Watchdog monitors one run. Start it after the monitored graph exists and
// Stop it (idempotently) when the run returns.
type Watchdog struct {
	cfg  WatchdogConfig
	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	stalled  bool
	blockedA []string
	started  bool
	stopped  bool
	stats    WatchdogStats
}

// NewWatchdog builds a watchdog; Start arms it.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Window <= 0 {
		cfg.Window = 2 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.Window / 8
	}
	if cfg.Poll < time.Millisecond {
		cfg.Poll = time.Millisecond
	}
	return &Watchdog{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the monitor goroutine. It may be called once.
func (w *Watchdog) Start() {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.mu.Unlock()
	go w.loop()
}

// Stop shuts the monitor down and waits for its goroutine to exit, so a
// stopped watchdog never leaks and never fires afterwards. Idempotent.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	if !w.started || w.stopped {
		w.started = true // Stop before Start: make Start a no-op
		w.stopped = true
		w.mu.Unlock()
		return
	}
	w.stopped = true
	w.mu.Unlock()
	close(w.stop)
	<-w.done
}

// Stalled reports whether the watchdog declared a stall, and the blocked
// dump taken at that moment.
func (w *Watchdog) Stalled() (bool, []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalled, append([]string(nil), w.blockedA...)
}

// Stats returns a snapshot of the watchdog's observation counters.
func (w *Watchdog) Stats() WatchdogStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

func (w *Watchdog) loop() {
	defer close(w.done)
	ticker := time.NewTicker(w.cfg.Poll)
	defer ticker.Stop()
	last := w.cfg.Progress()
	lastChange := time.Now()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		if cur := w.cfg.Progress(); cur != last {
			last = cur
			lastChange = time.Now()
			continue
		}
		if time.Since(lastChange) < w.cfg.Window {
			continue
		}
		if w.cfg.RemoteBusy != nil && w.cfg.RemoteBusy() > 0 {
			// Parked inside a remote operation, not livelocked: the
			// transport's deadline machinery owns this wait. Defer the
			// verdict and restart the window.
			w.mu.Lock()
			w.stats.RemoteWaitDeferrals++
			w.mu.Unlock()
			lastChange = time.Now()
			continue
		}
		var blocked []string
		if w.cfg.Blocked != nil {
			blocked = w.cfg.Blocked()
		}
		w.mu.Lock()
		w.stalled = true
		w.blockedA = blocked
		w.mu.Unlock()
		if w.cfg.OnStall != nil {
			w.cfg.OnStall(blocked)
		}
		return // one-shot: the stall handler owns recovery from here
	}
}

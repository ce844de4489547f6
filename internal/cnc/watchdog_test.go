package cnc

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A frozen progress counter must trip the watchdog within the window (plus
// scheduling slack) and hand OnStall the blocked dump.
func TestWatchdogDetectsStall(t *testing.T) {
	fired := make(chan []string, 1)
	wd := NewWatchdog(WatchdogConfig{
		Progress: func() uint64 { return 7 },
		Blocked:  func() []string { return []string{"s@1 <- it[1]"} },
		Window:   50 * time.Millisecond,
		OnStall:  func(blocked []string) { fired <- blocked },
	})
	wd.Start()
	defer wd.Stop()
	select {
	case blocked := <-fired:
		if len(blocked) != 1 || blocked[0] != "s@1 <- it[1]" {
			t.Fatalf("blocked dump = %v", blocked)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog did not fire on a frozen counter")
	}
	if stalled, blocked := wd.Stalled(); !stalled || len(blocked) != 1 {
		t.Fatalf("Stalled() = %v, %v", stalled, blocked)
	}
}

// A counter that keeps moving must never trip the watchdog.
func TestWatchdogIgnoresProgress(t *testing.T) {
	var n atomic.Uint64
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				n.Add(1)
			}
		}
	}()
	defer close(stop)
	wd := NewWatchdog(WatchdogConfig{
		Progress: n.Load,
		Window:   60 * time.Millisecond,
		OnStall:  func([]string) { t.Error("stall declared despite progress") },
	})
	wd.Start()
	time.Sleep(300 * time.Millisecond)
	wd.Stop()
	if stalled, _ := wd.Stalled(); stalled {
		t.Fatal("watchdog stalled on a moving counter")
	}
}

// Stop must be safe before Start, after Start, and twice.
func TestWatchdogStopIdempotent(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{Progress: func() uint64 { return 0 }})
	wd.Stop()
	wd.Stop()
	wd.Start() // no-op after Stop
	wd2 := NewWatchdog(WatchdogConfig{Progress: func() uint64 { return 0 }, Window: time.Hour})
	wd2.Start()
	wd2.Stop()
	wd2.Stop()
}

// The livelock the runtime cannot see: a non-blocking-get style step polls
// for an item that never arrives and re-puts its own tag, so workers stay
// busy and StepsDone keeps growing while no data is ever produced. The
// runtime never quiesces (no deadlock report); the ItemsPut watchdog must
// catch the stall and cancel the run, which then drains and returns
// ctx.Err() — distinguishing livelock from the quiesced-deadlock case the
// runtime reports itself.
func TestWatchdogCatchesRePutLivelock(t *testing.T) {
	g := NewGraph("livelock", 4)
	items := NewItemCollection[int, int](g, "it")
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(i int) error {
		if i == 0 {
			items.Put(0, 0) // some real progress early on
			return nil
		}
		if _, ok := items.TryGet(99); !ok { // never produced
			tags.Put(i) // non-blocking re-put: livelock, not deadlock
			return nil
		}
		return nil
	})
	tags.Prescribe(step)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wd := NewWatchdog(WatchdogConfig{
		Progress: func() uint64 { return g.Stats().ItemsPut },
		Blocked:  g.Blocked,
		Window:   150 * time.Millisecond,
		OnStall:  func([]string) { cancel() },
	})
	wd.Start()
	defer wd.Stop()

	start := time.Now()
	err := g.RunContext(ctx, func() {
		tags.Put(0)
		tags.Put(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the watchdog", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("livelock ran %v before the watchdog caught it", d)
	}
	if stalled, _ := wd.Stalled(); !stalled {
		t.Fatal("watchdog did not record the stall")
	}
	if s := g.Stats(); s.StepsDone == 0 {
		t.Fatal("livelock should have kept retiring steps (that is what makes it a livelock)")
	}
}

// Zero-put graphs are the degenerate stall: the progress counter never
// moves off its initial value, so there is no "last change" sample to
// anchor the window. The watchdog must treat arming time as the anchor and
// fire one window later, not wait forever for a first change.
func TestWatchdogZeroProgressFromStart(t *testing.T) {
	fired := make(chan struct{})
	wd := NewWatchdog(WatchdogConfig{
		Progress: func() uint64 { return 0 },
		Window:   50 * time.Millisecond,
		OnStall:  func([]string) { close(fired) },
	})
	wd.Start()
	defer wd.Stop()
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired on a counter that never left zero")
	}
}

// The stall window is measured from the last observed change: progress
// arriving just before the window would have elapsed must push the firing
// point a full window further out, and the watchdog can never fire earlier
// than one window after that last change.
func TestWatchdogWindowAnchorsOnLastChange(t *testing.T) {
	const window = 200 * time.Millisecond
	var n atomic.Uint64
	fired := make(chan time.Time, 1)
	wd := NewWatchdog(WatchdogConfig{
		Progress: n.Load,
		Window:   window,
		OnStall:  func([]string) { fired <- time.Now() },
	})
	wd.Start()
	defer wd.Stop()
	// Bump the counter late in the first window, then freeze it for good.
	time.Sleep(window * 3 / 4)
	bumpTime := time.Now()
	n.Add(1)
	select {
	case at := <-fired:
		if since := at.Sub(bumpTime); since < window {
			t.Fatalf("fired %v after the last change, want at least the %v window", since, window)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired after progress froze")
	}
}

// A true deadlock, by contrast, quiesces and is reported by the runtime
// itself — the watchdog must not be needed and must not have fired first.
func TestDeadlockStillReportedByRuntime(t *testing.T) {
	g := NewGraph("deadlock", 2)
	items := NewItemCollection[int, int](g, "it")
	tags := NewTagCollection[int](g, "tg", false)
	step := NewStepCollection(g, "s", func(i int) error {
		items.Get(99) // parks forever: quiesced deadlock
		return nil
	})
	tags.Prescribe(step)
	wd := NewWatchdog(WatchdogConfig{
		Progress: func() uint64 { return g.Stats().ItemsPut },
		Window:   10 * time.Second,
	})
	wd.Start()
	defer wd.Stop()
	err := g.Run(func() { tags.Put(1) })
	var dl *DeadlockError
	if !errors.As(err, &dl) || !strings.Contains(dl.Blocked[0], "it[99]") {
		t.Fatalf("err = %v, want runtime DeadlockError naming it[99]", err)
	}
	if stalled, _ := wd.Stalled(); stalled {
		t.Fatal("watchdog fired for a deadlock the runtime detects itself")
	}
}

// TestWatchdogDefersStallWhileRemoteBusy: with progress frozen but
// RemoteBusy nonzero, the watchdog must keep deferring (counting each
// deferral) instead of declaring a stall; once the remote wait clears and
// progress stays frozen a full window, the stall fires.
func TestWatchdogDefersStallWhileRemoteBusy(t *testing.T) {
	var busy atomic.Int64
	busy.Store(1)
	stall := make(chan struct{})
	w := NewWatchdog(WatchdogConfig{
		Progress:   func() uint64 { return 42 }, // frozen from the start
		RemoteBusy: busy.Load,
		Window:     20 * time.Millisecond,
		Poll:       2 * time.Millisecond,
		OnStall:    func([]string) { close(stall) },
	})
	w.Start()
	defer w.Stop()

	// Remote-busy phase: several windows elapse with no stall.
	select {
	case <-stall:
		t.Fatal("stall declared while RemoteBusy > 0")
	case <-time.After(100 * time.Millisecond):
	}
	if d := w.Stats().RemoteWaitDeferrals; d == 0 {
		t.Fatal("no RemoteWaitDeferrals counted during the remote-busy phase")
	}

	// Remote wait clears; progress is still frozen, so now it is a stall.
	busy.Store(0)
	select {
	case <-stall:
	case <-time.After(2 * time.Second):
		t.Fatal("stall never declared after RemoteBusy cleared")
	}
	if stalled, _ := w.Stalled(); !stalled {
		t.Fatal("Stalled() false after OnStall ran")
	}
}

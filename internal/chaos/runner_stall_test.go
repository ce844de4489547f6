package chaos_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dpflow/internal/chaos"
	"dpflow/internal/cnc"
)

// A zero-put graph that quiesces — the consumer parks on an item nothing
// ever produces — is a deadlock the runtime itself must name precisely; the
// runner's watchdog must not race it to a vaguer cancellation.
func TestRunnerZeroPutDeadlockNamed(t *testing.T) {
	r := &chaos.Runner{Timeout: 30 * time.Second, StallWindow: 10 * time.Second}
	target := chaos.Target{
		Name: "zero-put-deadlock",
		Run: func(ctx context.Context, tune func(*cnc.Graph)) error {
			g := cnc.NewGraph("zero-put", 2)
			items := cnc.NewItemCollection[int, int](g, "it")
			tags := cnc.NewTagCollection[int](g, "tg", false)
			step := cnc.NewStepCollection(g, "starved", func(i int) error {
				items.Get(42) // nothing ever puts: quiesced deadlock, zero items
				return nil
			})
			tags.Prescribe(step)
			tune(g)
			return g.RunContext(ctx, func() { tags.Put(1) })
		},
	}
	start := time.Now()
	res := r.Drive(target, &chaos.StepError{Prob: 1e-12, Times: 1}, 1)
	if time.Since(start) > 10*time.Second {
		t.Fatal("zero-put deadlock took the slow path out")
	}
	var dl *cnc.DeadlockError
	if !errors.As(res.Err, &dl) {
		t.Fatalf("Err = %v, want the runtime's DeadlockError", res.Err)
	}
	if len(dl.Blocked) != 1 || !strings.Contains(dl.Blocked[0], "starved@1 <- it[42]") {
		t.Fatalf("blocked = %v, want the starved instance named with its missing item", dl.Blocked)
	}
	if res.Stalled || res.DeadlineFired {
		t.Fatalf("Stalled = %v DeadlineFired = %v: the runtime's own report should have won", res.Stalled, res.DeadlineFired)
	}
}

// A zero-put livelock — busy re-puts from the first step, never any item —
// cannot quiesce, so only the watchdog can end it. The run must come back
// as a stall with the run's identity in the error, never as a hang or a
// hard-deadline kill.
func TestRunnerZeroPutLivelockStalls(t *testing.T) {
	r := &chaos.Runner{Timeout: 30 * time.Second, StallWindow: 200 * time.Millisecond}
	target := chaos.Target{
		Name: "zero-put-livelock",
		Run: func(ctx context.Context, tune func(*cnc.Graph)) error {
			g := cnc.NewGraph("zero-put-livelock", 2)
			items := cnc.NewItemCollection[int, int](g, "it")
			tags := cnc.NewTagCollection[int](g, "tg", false)
			step := cnc.NewStepCollection(g, "poll", func(i int) error {
				if _, ok := items.TryGet(42); !ok {
					tags.Put(i + 1) // ItemsPut stays 0 the whole run
				}
				return nil
			})
			tags.Prescribe(step)
			tune(g)
			return g.RunContext(ctx, func() { tags.Put(0) })
		},
	}
	start := time.Now()
	res := r.Drive(target, &chaos.StepError{Prob: 1e-12, Times: 1}, 1)
	if time.Since(start) > 10*time.Second {
		t.Fatal("zero-put livelock escaped the watchdog")
	}
	if !res.Stalled {
		t.Fatalf("Stalled = false, Err = %v; the watchdog should have ended the run", res.Err)
	}
	if res.DeadlineFired {
		t.Fatal("hard deadline fired; the watchdog should have cancelled long before")
	}
	if res.Err == nil || !errors.Is(res.Err, context.Canceled) || !strings.Contains(res.Err.Error(), "zero-put-livelock") {
		t.Fatalf("Err = %v, want wrapped context.Canceled naming the run", res.Err)
	}
}

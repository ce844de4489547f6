package bench

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
)

// monotone is the part of cnc.Stats that only ever grows during a run.
func monotone(s cnc.Stats) []uint64 {
	return []uint64{s.TagsPut, s.ItemsPut, s.StepsStarted, s.StepsDone, s.Aborts,
		s.Requeues, s.TriggeredRuns, s.Retries, uint64(s.ItemsFreed),
		uint64(s.PeakLiveItems), uint64(s.PeakLiveBytes)}
}

// TestStatsSumLanes: Stats sums the run counters of every lane and of the
// graph. Polled throughout a run each sum is non-decreasing (bench.Check's
// watchdog reads ItemsPut as progress), and at the end they balance: every
// attempt completed or aborted, every abort was requeued, one item per base
// task, every item freed.
func TestStatsSumLanes(t *testing.T) {
	for _, b := range All() {
		for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC} {
			for _, w := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/W=%d", b.Name(), v, w), func(t *testing.T) {
					in, err := b.NewInstance(confN, confBase, confSeed)
					if err != nil {
						t.Fatal(err)
					}
					stop := make(chan struct{})
					var wg sync.WaitGroup
					var polls int
					var pollErr error
					tune := func(g *cnc.Graph) {
						wg.Add(1)
						go func() {
							defer wg.Done()
							prev := monotone(g.Stats())
							for {
								select {
								case <-stop:
									return
								default:
								}
								cur := monotone(g.Stats())
								for i := range cur {
									if cur[i] < prev[i] && pollErr == nil {
										pollErr = fmt.Errorf("poll %d: counter %d fell %d → %d", polls, i, prev[i], cur[i])
									}
								}
								prev = cur
								polls++
							}
						}()
					}
					s, err := in.Run(context.Background(), v, RunOpts{Workers: w, Tune: tune})
					close(stop)
					wg.Wait()
					if err != nil {
						t.Fatal(err)
					}
					if err := in.Verify(); err != nil {
						t.Fatal(err)
					}
					if pollErr != nil {
						t.Fatal(pollErr)
					}
					tasks := b.TotalTasks(confN / confBase)
					switch {
					case s.StepsStarted != s.StepsDone+s.Aborts:
						t.Fatalf("StepsStarted %d != StepsDone %d + Aborts %d", s.StepsStarted, s.StepsDone, s.Aborts)
					case s.Requeues != s.Aborts:
						t.Fatalf("Requeues %d != Aborts %d", s.Requeues, s.Aborts)
					case s.ItemsPut != uint64(s.BaseTasks) || s.BaseTasks != tasks:
						t.Fatalf("ItemsPut %d, BaseTasks %d, TotalTasks %d: want all equal", s.ItemsPut, s.BaseTasks, tasks)
					case s.ItemsFreed != int64(s.ItemsPut) || s.LiveItems != 0:
						t.Fatalf("ItemsFreed %d, LiveItems %d; want %d and 0", s.ItemsFreed, s.LiveItems, s.ItemsPut)
					}
				})
			}
		}
	}
}

// TestUnboundedAccountantExact: without a memory limit the accountant keeps
// the live set with atomics alone, and its peaks stay exact. At one worker
// a Native run's order is fixed, so its peaks and frees are too: these are
// the values the mutex-guarded accountant reported for the same runs.
func TestUnboundedAccountantExact(t *testing.T) {
	for _, c := range []struct {
		name                 string
		n, base              int
		peakItems, peakBytes int64
		freed                int64
	}{
		{"ge", 256, 16, 163, 333824, 1496},
		{"chol", 256, 32, 29, 237568, 120},
	} {
		b, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := b.NewInstance(c.n, c.base, confSeed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := in.Run(context.Background(), core.NativeCnC, RunOpts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Verify(); err != nil {
			t.Fatal(err)
		}
		if s.PeakLiveItems != c.peakItems || s.PeakLiveBytes != c.peakBytes || s.ItemsFreed != c.freed {
			t.Errorf("%s %d/%d: PeakLiveItems %d, PeakLiveBytes %d, ItemsFreed %d; want %d, %d, %d",
				c.name, c.n, c.base, s.PeakLiveItems, s.PeakLiveBytes, s.ItemsFreed, c.peakItems, c.peakBytes, c.freed)
		}
	}
}

package chaos_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/chaos"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/exec"
)

// The multi-tenant isolation claim of the shared-executor refactor: a
// tenant whose graph is being actively sabotaged — the full fault matrix,
// injection probability 1 — shares the executor with a healthy tenant,
// and the healthy tenant's job must still complete, verify, and never
// trip its progress watchdog. Panics stay contained to the faulty graph,
// a DelayedPut's sleeping step only borrows a physical worker for a
// bounded time, and a dropped tag deadlocks only the graph that lost it.
func TestFaultMatrixSharedExecutorIsolation(t *testing.T) {
	ge, err := bench.ByName("ge")
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.New(2)
	defer ex.Close()

	for _, fault := range chaos.Faults(1, 3) {
		t.Run(fault.Name(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			var wg sync.WaitGroup

			// Faulty tenant: fault armed at probability 1, no retry budget.
			// Any terminal outcome is legitimate — failure, deadlock, or a
			// survived run — as long as it terminates and stays contained.
			var faultyErr error
			var probe *chaos.Probe
			wg.Add(1)
			go func() {
				defer wg.Done()
				in, err := ge.NewInstance(64, 8, 7)
				if err != nil {
					faultyErr = err
					return
				}
				rng := rand.New(rand.NewSource(7))
				_, runErr := in.Run(ctx, core.NativeCnC, bench.RunOpts{
					Workers: 2,
					Tune: func(g *cnc.Graph) {
						g.WithExecutor(ex)
						probe = fault.Arm(g, rng)
					},
				})
				faultyErr = runErr
			}()

			// Healthy tenant: watchdogged; a stall means the faulty tenant
			// managed to starve it — the exact failure the per-lease claim
			// protocol exists to prevent.
			var healthyGraph *cnc.Graph
			var healthyMu sync.Mutex
			stalled := make(chan struct{}, 1)
			healthyCtx, cancelHealthy := context.WithCancel(ctx)
			defer cancelHealthy()
			wd := cnc.NewWatchdog(cnc.WatchdogConfig{
				Window: 5 * time.Second,
				Progress: func() uint64 {
					healthyMu.Lock()
					g := healthyGraph
					healthyMu.Unlock()
					if g == nil {
						return 0
					}
					st := g.Stats()
					return st.StepsDone + st.ItemsPut
				},
				OnStall: func([]string) {
					select {
					case stalled <- struct{}{}:
					default:
					}
					cancelHealthy()
				},
			})
			wd.Start()
			defer wd.Stop()

			in, err := ge.NewInstance(128, 8, 11)
			if err != nil {
				t.Fatal(err)
			}
			_, err = in.Run(healthyCtx, core.NativeCnC, bench.RunOpts{
				Workers: 2,
				Tune: func(g *cnc.Graph) {
					g.WithExecutor(ex)
					healthyMu.Lock()
					healthyGraph = g
					healthyMu.Unlock()
				},
			})
			if err == nil {
				err = in.Verify()
			}
			select {
			case <-stalled:
				t.Fatalf("healthy tenant stalled while %s sabotaged its neighbour", fault.Name())
			default:
			}
			if err != nil {
				t.Fatalf("healthy tenant failed under neighbour's %s: %v", fault.Name(), err)
			}

			wg.Wait()
			if ctx.Err() != nil {
				t.Fatalf("faulty tenant did not terminate under %s (hard deadline)", fault.Name())
			}
			if probe == nil || probe.Count() == 0 {
				t.Fatalf("%s never fired — isolation untested", fault.Name())
			}
			// Outcome of the faulty run is free, but DelayedPut never fails
			// anything, so there a clean run is part of the contract.
			if fault.Name() == "delayed-put" && faultyErr != nil {
				t.Fatalf("delayed-put must only jitter, got %v", faultyErr)
			}
			t.Logf("faulty tenant: injections=%d err=%v", probe.Count(), faultyErr)
		})
	}

	// The executor survived the whole matrix: a fresh healthy run still
	// completes on it.
	in, err := ge.NewInstance(64, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(context.Background(), core.NativeCnC, bench.RunOpts{
		Workers: 2,
		Tune:    func(g *cnc.Graph) { g.WithExecutor(ex) },
	}); err != nil {
		t.Fatalf("executor unusable after fault matrix: %v", err)
	}
	if err := in.Verify(); err != nil {
		t.Fatal(err)
	}
}

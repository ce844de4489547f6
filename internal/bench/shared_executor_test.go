package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpflow/internal/chaos"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/exec"
	"dpflow/internal/exec/admission"
)

// waitGoroutines polls until the goroutine count drops to at most want
// (monitor goroutines unwind asynchronously after a run returns).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines = %d, want <= %d (leak)", runtime.NumGoroutine(), want)
}

// Every benchmark × every CnC schedule, all running concurrently on ONE
// shared executor: each job verifies, frees every item, and the process
// never grows a per-job worker complement — the executor multiplexes its
// fixed physical pool across all of them.
func TestSharedExecutorConformance(t *testing.T) {
	ex := exec.New(4)
	defer ex.Close()
	before := runtime.NumGoroutine()

	variants := []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC, core.NonBlockingCnC}
	type result struct {
		name    string
		stats   cnc.Stats
		err     error
		gcBound bool // schedule declares get-counts: leak check applies
	}
	var wg sync.WaitGroup
	results := make(chan result, len(All())*len(variants))
	for _, b := range All() {
		for _, v := range variants {
			wg.Add(1)
			go func(b Benchmark, v core.Variant) {
				defer wg.Done()
				name := b.Name() + "/" + v.String()
				in, err := b.NewInstance(confN, confBase, confSeed)
				if err != nil {
					results <- result{name: name, err: err}
					return
				}
				stats, err := in.Run(context.Background(), v, RunOpts{
					Workers: confWorkers,
					Tune:    func(g *cnc.Graph) { g.WithExecutor(ex) },
				})
				if err == nil {
					err = in.Verify()
				}
				// NonBlocking is the one schedule without declared
				// get-counts, so only the others promise LiveItems == 0.
				results <- result{name: name, stats: stats.Stats, err: err,
					gcBound: v != core.NonBlockingCnC}
			}(b, v)
		}
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			t.Errorf("%s: %v", r.name, r.err)
			continue
		}
		if r.stats.StepsDone == 0 {
			t.Errorf("%s: StepsDone = 0, run not wired through the executor", r.name)
		}
		if r.gcBound && r.stats.LiveItems != 0 {
			t.Errorf("%s: LiveItems = %d after quiesce (leak)", r.name, r.stats.LiveItems)
		}
	}
	// All leases closed: no goroutines beyond the executor's own pool.
	waitGoroutines(t, before+2)
	if s := ex.Stats(); s.Leases != 0 {
		t.Fatalf("leases = %d after all runs, want 0", s.Leases)
	}
}

// Determinism survives the shared executor: replaying every benchmark
// under two different schedules (worker counts and steal policies) on one
// executor yields bit-identical item-store fingerprints.
func TestSharedExecutorDeterminismAudit(t *testing.T) {
	ex := exec.New(3)
	defer ex.Close()
	for _, b := range All() {
		t.Run(b.Name(), func(t *testing.T) {
			run := func(ctx context.Context, workers int, tune func(*cnc.Graph)) error {
				in, err := b.NewInstance(confN, confBase, confSeed)
				if err != nil {
					return err
				}
				_, err = in.Run(ctx, core.NativeCnC, RunOpts{
					Workers: workers,
					Tune: func(g *cnc.Graph) {
						g.WithExecutor(ex)
						tune(g)
					},
				})
				return err
			}
			diffs, err := chaos.DeterminismAudit(context.Background(), run,
				chaos.Schedule{Workers: 2, Steal: exec.StealRandom},
				chaos.Schedule{Workers: 3, Steal: exec.StealSequential})
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) != 0 {
				t.Fatalf("fingerprints differ across schedules: %v", diffs)
			}
		})
	}
}

// The PR's acceptance scenario: 8 concurrent GE n=256 jobs on one 8-worker
// executor. Total goroutines stay bounded by the pool size plus O(jobs) —
// not jobs × workers — every job verifies, and with per-job memory limits
// carved from a process budget by the admission controller, the aggregate
// PeakLiveBytes stays within the budget whenever nothing stalled.
func TestSharedExecutorConcurrentGEAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("8×GE n=256 acceptance run")
	}
	const (
		jobs    = 8
		workers = 8
		n       = 256
		base    = 16
		budget  = int64(32 << 20)
	)
	before := runtime.NumGoroutine()
	ex := exec.New(workers)
	defer ex.Close()
	ctl := admission.New(budget)

	ge, err := ByName("ge")
	if err != nil {
		t.Fatal(err)
	}

	// Sample the goroutine high-water mark while the jobs run.
	var peakG atomic.Int64
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stopSampler:
				return
			default:
			}
			if g := int64(runtime.NumGoroutine()); g > peakG.Load() {
				peakG.Store(g)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	perJob := budget / jobs
	var wg sync.WaitGroup
	stats := make([]cnc.Stats, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := ctl.Tenant(fmt.Sprintf("tenant-%d", i), 0)
			grant, err := tenant.Admit(context.Background(), perJob)
			if err != nil {
				errs[i] = err
				return
			}
			defer grant.Release()
			in, err := ge.NewInstance(n, base, int64(i))
			if err != nil {
				errs[i] = err
				return
			}
			st, err := in.Run(context.Background(), core.NativeCnC, RunOpts{
				Workers: workers,
				Tune: func(g *cnc.Graph) {
					g.WithExecutor(ex)
					g.WithMemoryLimit(grant.Bytes())
				},
			})
			if err == nil {
				err = in.Verify()
			}
			stats[i], errs[i] = st.Stats, err
		}(i)
	}
	wg.Wait()
	close(stopSampler)
	<-samplerDone

	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	// Goroutine bound: the executor's fixed pool plus O(jobs) — one job
	// goroutine and one run-monitor goroutine per job, with slack for the
	// test's own machinery. The pre-refactor world would have needed
	// jobs×workers worker goroutines on top.
	bound := int64(before + workers + 3*jobs + 4)
	if peak := peakG.Load(); peak > bound {
		t.Errorf("goroutine peak %d exceeds pool+O(jobs) bound %d", peak, bound)
	}
	var totalPeak, totalStalls int64
	for _, st := range stats {
		totalPeak += st.PeakLiveBytes
		totalStalls += st.BackpressureStalls
	}
	if totalPeak == 0 {
		t.Fatal("aggregate PeakLiveBytes = 0: memory accounting not wired")
	}
	if totalStalls == 0 && totalPeak > budget {
		t.Errorf("aggregate PeakLiveBytes %d exceeds process budget %d with zero stalls",
			totalPeak, budget)
	}
	if s := ctl.Stats(); s.Reserved != 0 || s.Admitted != jobs {
		t.Errorf("admission stats after drain: %+v", s)
	}
}

package chaos_test

import (
	"context"
	"strings"
	"testing"

	"dpflow/internal/bench"
	"dpflow/internal/chaos"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
)

// TestDeterminismAuditBenchmarks replays every registered benchmark's CnC
// graph under two schedules (different worker counts)
// and checks the item-store fingerprints are identical: the CnC runtime's
// determinism claim, verified on contents rather than just on the final
// table.
func TestDeterminismAuditBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			run := func(ctx context.Context, workers int, tune func(*cnc.Graph)) error {
				// Fresh instance per replay: instances are single-use, and
				// both replays must start from identical inputs.
				in, err := b.NewInstance(chaosN, chaosBase, 7)
				if err != nil {
					return err
				}
				if _, err := in.Run(ctx, core.NativeCnC, bench.RunOpts{Workers: workers, Tune: tune}); err != nil {
					return err
				}
				return in.Verify()
			}
			diff, err := chaos.DeterminismAudit(context.Background(), run, 2, chaosWorkers)
			if err != nil {
				t.Fatalf("audit failed: %v", err)
			}
			if len(diff) != 0 {
				t.Fatalf("schedules produced different item stores:\n%s", strings.Join(diff, "\n"))
			}
		})
	}
}

// TestDeterminismAuditCatchesScheduleDependence audits a graph whose output
// depends on the schedule (it records the worker count into the item store
// — the deterministic stand-in for any order-dependent computation) and
// checks the audit reports the divergence, naming the item and both values.
func TestDeterminismAuditCatchesScheduleDependence(t *testing.T) {
	run := func(ctx context.Context, workers int, tune func(*cnc.Graph)) error {
		g := cnc.NewGraph("sched-dep", workers)
		out := cnc.NewItemCollection[int, int](g, "out")
		tags := cnc.NewTagCollection[int](g, "t", false)
		step := cnc.NewStepCollection(g, "s", func(i int) error {
			out.Put(i, workers)
			return nil
		})
		tags.Prescribe(step)
		tune(g)
		return g.RunContext(ctx, func() { tags.Put(0) })
	}
	diff, err := chaos.DeterminismAudit(context.Background(), run, 1, 4)
	if err != nil {
		t.Fatalf("audit failed: %v", err)
	}
	if len(diff) != 1 || !strings.Contains(diff[0], "out[0]") || !strings.Contains(diff[0], "1 vs 4") {
		t.Fatalf("diff = %v, want the out[0] divergence named with both values", diff)
	}
}

// TestDeterminismAuditSurfacesViolation audits a graph that double-puts an
// item: the audit must fail with the checker's write-once report (naming
// both writers) rather than fingerprinting a broken run.
func TestDeterminismAuditSurfacesViolation(t *testing.T) {
	run := func(ctx context.Context, workers int, tune func(*cnc.Graph)) error {
		g := cnc.NewGraph("double-put", workers)
		out := cnc.NewItemCollection[int, int](g, "out")
		tune(g)
		return g.RunContext(ctx, func() {
			out.Put(0, 1)
			out.Put(0, 2)
		})
	}
	_, err := chaos.DeterminismAudit(context.Background(), run, 1, 2)
	if err == nil || !strings.Contains(err.Error(), "write-once violation") {
		t.Fatalf("err = %v, want write-once violation surfaced", err)
	}
}

package bench_test

import (
	"context"
	"testing"

	"dpflow/internal/bench"
	"dpflow/internal/chaos"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/exec"
)

// Determinism survives the shared executor: replaying every benchmark
// at two different worker counts on one
// executor yields bit-identical item-store fingerprints. It runs at the
// conformance suite's geometry, from the external test package because
// chaos imports bench.
func TestSharedExecutorDeterminismAudit(t *testing.T) {
	ex := exec.New(3)
	defer ex.Close()
	for _, b := range bench.All() {
		t.Run(b.Name(), func(t *testing.T) {
			run := func(ctx context.Context, workers int, tune func(*cnc.Graph)) error {
				in, err := b.NewInstance(64, 8, 17)
				if err != nil {
					return err
				}
				_, err = in.Run(ctx, core.NativeCnC, bench.RunOpts{
					Workers: workers,
					Tune: func(g *cnc.Graph) {
						g.WithExecutor(ex)
						tune(g)
					},
				})
				return err
			}
			diffs, err := chaos.DeterminismAudit(context.Background(), run, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) != 0 {
				t.Fatalf("fingerprints differ across schedules: %v", diffs)
			}
		})
	}
}

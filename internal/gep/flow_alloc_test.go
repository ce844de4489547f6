//go:build !race

package gep_test

import (
	"context"
	"testing"

	"dpflow/internal/forkjoin"
)

// TestInterpretersAllocFree: with the kernel stubbed out, a serial or
// fork-join run of a built Flow allocates nothing per call or per spawn —
// visitors, stage buffers and groups are pooled, and spawns go through the
// closure-free trampoline — so its bill is the pool's fixed per-run setup,
// however many calls the walk makes.
// Excluded from -race builds, where sync.Pool deliberately drops Puts.
func TestInterpretersAllocFree(t *testing.T) {
	pool := forkjoin.NewPool(forkjoin.Config{Workers: 2})
	defer pool.Close()
	noop := func(bool) error { return nil }
	for _, fx := range fixtures() {
		serial, forkJoin, _ := fx.fresh(noop)
		for _, run := range []struct {
			model string
			max   float64
			run   func()
		}{
			{"serial", 0, func() {
				if err := serial(); err != nil {
					t.Fatal(err)
				}
			}},
			{"fork-join", 8, func() {
				if err := forkJoin(context.Background(), pool); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			run.run() // warm the pools
			allocs := testing.AllocsPerRun(10, run.run)
			t.Logf("%s/%s: %.1f allocs/run", fx.name, run.model, allocs)
			if allocs > run.max {
				t.Errorf("%s/%s: %.1f allocs/run, want <= %.0f", fx.name, run.model, allocs, run.max)
			}
		}
	}
}

package sw

import (
	"testing"

	"dpflow/internal/core"
)

// TestCnCLeakFree checks the SW memory contract end-to-end for every
// GC-enabled schedule: the per-tile get-counts (right, down, and diagonal
// readers at interior tiles, fewer at the edges) must free every item by
// quiesce without ever freeing one early.
func TestCnCLeakFree(t *testing.T) {
	for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC} {
		t.Run(v.String(), func(t *testing.T) {
			p := problem(64, 5)
			want := p.Linear()

			h := p.NewTable()
			score, stats, err := p.runCnC(h, 8, 3, v)
			if err != nil {
				t.Fatal(err)
			}
			if score != want {
				t.Fatalf("score = %v, want %v", score, want)
			}
			if stats.LiveItems != 0 {
				t.Fatalf("LiveItems = %d after quiesce, want 0 (declared get-counts too high)", stats.LiveItems)
			}
			if stats.ItemsFreed != int64(stats.ItemsPut) {
				t.Fatalf("ItemsFreed = %d, want %d", stats.ItemsFreed, stats.ItemsPut)
			}
			if stats.PeakLiveItems >= int64(stats.ItemsPut) {
				t.Fatalf("PeakLiveItems = %d, want < %d (no item ever died)", stats.PeakLiveItems, stats.ItemsPut)
			}
		})
	}
}

// TestNonBlockingExcludedFromGC: the polling schedule re-runs step
// instances on poll misses, so the memory contract is deliberately not
// declared there and no item may ever be freed.
func TestNonBlockingExcludedFromGC(t *testing.T) {
	p := problem(64, 5)
	want := p.Linear()

	h := p.NewTable()
	score, stats, err := p.runCnC(h, 8, 3, core.NonBlockingCnC)
	if err != nil {
		t.Fatal(err)
	}
	if score != want {
		t.Fatalf("score = %v, want %v", score, want)
	}
	if stats.ItemsFreed != 0 {
		t.Fatalf("ItemsFreed = %d, want 0 (no get-counts declared for polling)", stats.ItemsFreed)
	}
	if stats.LiveItems != int64(stats.ItemsPut) {
		t.Fatalf("LiveItems = %d, want %d", stats.LiveItems, stats.ItemsPut)
	}
}

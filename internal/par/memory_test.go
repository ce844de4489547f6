package par

import (
	"math/rand"
	"testing"

	"dpflow/internal/core"
)

// TestCnCLeakFree checks the memory contract the shared data-flow
// interpreter gives the parenthesis problem, for every GC-enabled schedule.
// Its get-counts are the hardest the collector sees: tile (I, J) is read by
// the rest of its row and column, I + T−1−J tiles, so the count varies from
// 0 at the corner to T−1 on the diagonal. n/base = 16 tiles per side gives
// fan-ins up to 30. Every receipt must be freed by quiesce, none early (a
// use-after-free fails the run).
func TestCnCLeakFree(t *testing.T) {
	p := RandomProblem(128, 30, rand.New(rand.NewSource(3)))
	want := p.Serial(p.NewTable())
	const tiles = 16
	for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC} {
		t.Run(v.String(), func(t *testing.T) {
			cost, stats, err := p.runCnC(p.NewTable(), 128/tiles, 3, v)
			if err != nil {
				t.Fatal(err)
			}
			if cost != want {
				t.Fatalf("cost = %v, want %v", cost, want)
			}
			if want := tiles * (tiles + 1) / 2; stats.BaseTasks != want || stats.ItemsPut != uint64(want) {
				t.Fatalf("BaseTasks = %d, ItemsPut = %d, want %d tiles", stats.BaseTasks, stats.ItemsPut, want)
			}
			if stats.LiveItems != 0 {
				t.Fatalf("LiveItems = %d after quiesce, want 0 (get-counts too high)", stats.LiveItems)
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
	p := RandomProblem(64, 30, rand.New(rand.NewSource(3)))
	want := p.Serial(p.NewTable())
	cost, stats, err := p.runCnC(p.NewTable(), 8, 3, core.NonBlockingCnC)
	if err != nil {
		t.Fatal(err)
	}
	if cost != want {
		t.Fatalf("cost = %v, want %v", cost, want)
	}
	if stats.ItemsFreed != 0 {
		t.Fatalf("ItemsFreed = %d, want 0 (no get-counts declared for polling)", stats.ItemsFreed)
	}
	if stats.LiveItems != int64(stats.ItemsPut) {
		t.Fatalf("LiveItems = %d, want %d", stats.LiveItems, stats.ItemsPut)
	}
}

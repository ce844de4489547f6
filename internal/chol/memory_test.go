package chol

import (
	"math/rand"
	"testing"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/matrix"
)

// TestCnCLeakFree checks the Cholesky memory contract across the three
// schedules that declare get-counts: after a successful run every tile
// receipt must have been garbage-collected (a too-high declared count would
// leave LiveItems > 0; a too-low one fails the run with a use-after-free or
// over-release), the factor must still be bit-identical to the tiled serial
// reference, and the live high-water mark must sit strictly below the total
// put count.
func TestCnCLeakFree(t *testing.T) {
	for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC} {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			orig := NewSPD(64, rng)
			ref := orig.Clone()
			if err := tiledSerial(ref, 8); err != nil {
				t.Fatal(err)
			}

			x := orig.Clone()
			stats, err := runCnC(x, 8, 3, v, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(x, ref) {
				t.Fatalf("factor disagrees with tiled serial (maxdiff %g)", matrix.MaxAbsDiff(x, ref))
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

// TestNonBlockingExcludedFromGC pins the NonBlockingCnC carve-out: its
// poll-miss re-put retires one successful step instance per poll, so
// completion-time releases would over-release. The variant therefore runs
// without get-counts — nothing freed, everything live at quiesce.
func TestNonBlockingExcludedFromGC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := NewSPD(32, rng)
	stats, err := runCnC(x, 4, 3, core.NonBlockingCnC, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ItemsFreed != 0 {
		t.Fatalf("ItemsFreed = %d, want 0 (NonBlocking must not declare get-counts)", stats.ItemsFreed)
	}
	if stats.LiveItems != int64(stats.ItemsPut) {
		t.Fatalf("LiveItems = %d, want %d", stats.LiveItems, stats.ItemsPut)
	}
}

// checkBound asserts the memory contract on one leg of a bounded-memory run
// (the same check as internal/ge's): PeakLiveBytes > limit happens only with
// BackpressureStalls > 0, never silently; limit 0 is the unbounded leg, which
// must neither defer nor stall.
func checkBound(t *testing.T, leg string, s cnc.Stats, limit int64) {
	t.Helper()
	if limit == 0 {
		if s.BackpressureWaits != 0 || s.BackpressureStalls != 0 {
			t.Fatalf("%s: waits %d stalls %d without a limit, want 0 and 0", leg, s.BackpressureWaits, s.BackpressureStalls)
		}
	} else if s.BackpressureStalls == 0 && s.PeakLiveBytes > limit {
		t.Fatalf("%s: PeakLiveBytes = %d exceeds the limit %d with no stall reported", leg, s.PeakLiveBytes, limit)
	}
	if s.LiveItems != 0 {
		t.Fatalf("%s: LiveItems = %d, want 0", leg, s.LiveItems)
	}
}

// TestBoundedMemoryCH runs Cholesky under memory limits derived from its own
// unbounded peak, on the same three legs as internal/ge's 2K acceptance run:
// unbounded; a budget the schedule is known to fit (the larger of two
// unbounded peaks), which must throttle and hold with no stall; and half the
// peak, which completes correctly whether or not the host's schedule fits it,
// any overrun reported as stalls. Every leg checks the contract itself.
func TestBoundedMemoryCH(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	orig := NewSPD(256, rng)
	ref := orig.Clone()
	if err := tiledSerial(ref, 16); err != nil {
		t.Fatal(err)
	}

	x := orig.Clone()
	unbounded, err := runCnC(x, 16, 4, core.NativeCnC, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, "unbounded", unbounded.Stats, 0)
	if unbounded.PeakLiveBytes == 0 {
		t.Fatal("unbounded: PeakLiveBytes = 0; SizeOf hints not wired")
	}
	if !matrix.Equal(x, ref) {
		t.Fatalf("unbounded factor disagrees with tiled serial (maxdiff %g)", matrix.MaxAbsDiff(x, ref))
	}
	again, err := runCnC(orig.Clone(), 16, 4, core.NativeCnC, nil)
	if err != nil {
		t.Fatal(err)
	}

	limit := max(unbounded.PeakLiveBytes, again.PeakLiveBytes)
	y := orig.Clone()
	bounded, err := runCnC(y, 16, 4, core.NativeCnC, func(g *cnc.Graph) { g.WithMemoryLimit(limit) })
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, "bounded", bounded.Stats, limit)
	if bounded.BackpressureStalls != 0 {
		t.Fatalf("bounded: BackpressureStalls = %d, want 0 (two unbounded runs fit in %d bytes)", bounded.BackpressureStalls, limit)
	}
	if bounded.BackpressureWaits == 0 {
		t.Fatal("bounded: BackpressureWaits = 0; the budget never throttled")
	}
	if !matrix.Equal(y, ref) {
		t.Fatalf("bounded factor disagrees with tiled serial (maxdiff %g)", matrix.MaxAbsDiff(y, ref))
	}

	tight := unbounded.PeakLiveBytes / 2
	z := orig.Clone()
	degraded, err := runCnC(z, 16, 4, core.NativeCnC, func(g *cnc.Graph) { g.WithMemoryLimit(tight) })
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, "tight", degraded.Stats, tight)
	if !matrix.Equal(z, ref) {
		t.Fatalf("tight factor disagrees with tiled serial (maxdiff %g)", matrix.MaxAbsDiff(z, ref))
	}
}

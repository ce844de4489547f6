package gep

import (
	"math/rand"
	"runtime"
	"testing"

	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/kernels"
	"dpflow/internal/matrix"
)

// memCases are the two GEP benchmarks' memory-contract fixtures: the
// algorithm, a 64×64 input and its loop-based serial reference.
var memCases = []struct {
	name   string
	alg    Algorithm
	input  func() *matrix.Dense
	serial func(*matrix.Dense)
}{
	{"GE", GE, func() *matrix.Dense { return geInput(64, 11) }, kernels.GESerial},
	{"FW", FW, func() *matrix.Dense { return randomGraph(64, 3) }, kernels.FWSerial},
}

// TestCnCLeakFree checks the GE and FW memory contract across the three
// schedules that declare get-counts: after a successful run every item must
// have been garbage-collected (a too-high declared count would leave
// LiveItems > 0; a too-low one fails the run with a use-after-free or
// over-release), the result must still match the serial loop, and the live
// high-water mark must sit strictly below the total put count — items died
// while the run progressed.
func TestCnCLeakFree(t *testing.T) {
	for _, c := range memCases {
		for _, v := range []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC} {
			t.Run(c.name+"/"+v.String(), func(t *testing.T) {
				orig := c.input()
				ref := orig.Clone()
				c.serial(ref)

				x := orig.Clone()
				stats, err := runCnC(c.alg, x, 8, 3, v, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !matrix.Equal(x, ref) {
					t.Fatalf("result disagrees with serial (maxdiff %g)", matrix.MaxAbsDiff(x, ref))
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
}

// TestNonBlockingExcludedFromGC pins the NonBlockingCnC carve-out: its
// poll-miss re-put retires one successful step instance per poll, so
// completion-time releases would over-release. The variant therefore runs
// without get-counts — correct result, nothing freed, everything live at
// quiesce.
func TestNonBlockingExcludedFromGC(t *testing.T) {
	for _, c := range memCases {
		t.Run(c.name, func(t *testing.T) {
			orig := c.input()
			ref := orig.Clone()
			c.serial(ref)

			x := orig.Clone()
			stats, err := runCnC(c.alg, x, 8, 3, core.NonBlockingCnC, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(x, ref) {
				t.Fatalf("result disagrees with serial (maxdiff %g)", matrix.MaxAbsDiff(x, ref))
			}
			if stats.ItemsFreed != 0 {
				t.Fatalf("ItemsFreed = %d, want 0 (NonBlocking must not declare get-counts)", stats.ItemsFreed)
			}
			if stats.LiveItems != int64(stats.ItemsPut) {
				t.Fatalf("LiveItems = %d, want %d", stats.LiveItems, stats.ItemsPut)
			}
		})
	}
}

// checkBound asserts the memory contract on one leg of a bounded-memory run:
// the budget holds strictly unless the runtime reports that it could not —
// PeakLiveBytes > limit happens only with BackpressureStalls > 0, never
// silently. (The converse is not a theorem: a forced admission can be for
// the growing-put headroom, with the bytes still inside the limit.) limit 0
// is the unbounded leg, which must neither defer nor stall.
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

// TestBoundedMemory2KGE is the acceptance run: a 2048×2048 Native-CnC GE at
// base 64, on three legs. Unbounded, it must quiesce with zero live items
// and a peak strictly below the total puts. Under a budget the schedule is
// known to fit — the larger of two unbounded peaks; one peak less 5 % sat
// within a percent of the admission policy's floor and stalled one run in
// three on a loaded host — every put is throttled and the bound holds with
// no stall. Under half the peak the run may or may not fit, depending on how
// much parallelism the host gives it: either way it completes, correct, and
// any overrun is reported as stalls. All three legs check the contract
// itself (checkBound) rather than which side of it the host lands on.
func TestBoundedMemory2KGE(t *testing.T) {
	if testing.Short() {
		t.Skip("2K GE acceptance run skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(42))
	orig := matrix.NewSquare(2048)
	orig.FillDiagonallyDominant(rng)
	workers := runtime.GOMAXPROCS(0)

	x := orig.Clone()
	unbounded, err := runCnC(GE, x, 64, workers, core.NativeCnC, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, "unbounded", unbounded.Stats, 0)
	if unbounded.ItemsFreed != int64(unbounded.ItemsPut) {
		t.Fatalf("unbounded: ItemsFreed = %d, want %d", unbounded.ItemsFreed, unbounded.ItemsPut)
	}
	if unbounded.PeakLiveItems >= int64(unbounded.ItemsPut) {
		t.Fatalf("unbounded: PeakLiveItems = %d, want < ItemsPut = %d",
			unbounded.PeakLiveItems, unbounded.ItemsPut)
	}
	if unbounded.PeakLiveBytes == 0 {
		t.Fatal("unbounded: PeakLiveBytes = 0; SizeOf hints not wired")
	}
	again, err := runCnC(GE, orig.Clone(), 64, workers, core.NativeCnC, nil)
	if err != nil {
		t.Fatal(err)
	}

	limit := max(unbounded.PeakLiveBytes, again.PeakLiveBytes)
	y := orig.Clone()
	bounded, err := runCnC(GE, y, 64, workers, core.NativeCnC, func(g *cnc.Graph) { g.WithMemoryLimit(limit) })
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
	if !matrix.Equal(x, y) {
		t.Fatalf("bounded run disagrees with unbounded (maxdiff %g)", matrix.MaxAbsDiff(x, y))
	}

	tight := unbounded.PeakLiveBytes / 2
	z := orig.Clone()
	degraded, err := runCnC(GE, z, 64, workers, core.NativeCnC, func(g *cnc.Graph) { g.WithMemoryLimit(tight) })
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, "tight", degraded.Stats, tight)
	if degraded.PeakLiveBytes > limit {
		t.Fatalf("tight: PeakLiveBytes = %d exceeds the unbounded peak %d", degraded.PeakLiveBytes, limit)
	}
	if !matrix.Equal(x, z) {
		t.Fatalf("tight run disagrees with unbounded (maxdiff %g)", matrix.MaxAbsDiff(x, z))
	}
	t.Logf("unbounded peaks %d and %d bytes (%d items) over %d puts; bounded to %d: peak %d, waits %d; tight %d: peak %d, stalls %d",
		unbounded.PeakLiveBytes, again.PeakLiveBytes, unbounded.PeakLiveItems, unbounded.ItemsPut,
		limit, bounded.PeakLiveBytes, bounded.BackpressureWaits,
		tight, degraded.PeakLiveBytes, degraded.BackpressureStalls)
}

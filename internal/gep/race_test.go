package gep

import (
	"strings"
	"testing"

	"dpflow/internal/determinacy"
	"dpflow/internal/forkjoin"
	"dpflow/internal/matrix"
)

// TestForkJoinRaceCheckedClean runs the real fork-join interpreter under
// determinacy detection: the taskwait schedule must be race-free at tile
// granularity, the detector must have actually tracked the kernels'
// declared accesses, and the result must still verify.
func TestForkJoinRaceCheckedClean(t *testing.T) {
	const n, base = 32, 8
	for _, tc := range []struct {
		name string
		alg  Algorithm
	}{
		{"GE/2way", GE},
		{"FW/2way", FW},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := geInput(n, 42)
			ref := x.Clone()
			if err := serial(tc.alg, ref, base); err != nil {
				t.Fatal(err)
			}
			p := forkjoin.NewPool(forkjoin.Config{Workers: 4, Seed: 7})
			defer p.Close()
			d := determinacy.NewDetector()
			p.WithRaceDetection(d)
			if err := forkJoin(tc.alg, x, base, p); err != nil {
				t.Fatal(err)
			}
			if err := d.Err(); err != nil {
				t.Fatalf("race reported on the correct schedule: %v", err)
			}
			if st := d.Stats(); st.Accesses == 0 {
				t.Fatal("detector saw no accesses; base cases not declaring")
			}
			if !matrix.Equal(x, ref) {
				t.Fatalf("detection changed the result (maxdiff %g)", matrix.MaxAbsDiff(x, ref))
			}
		})
	}
}

// brokenA is the fork-join interpreter's top level (triangular, 2-way) with
// the taskwait between the B/C stage and the D stage removed: funcD
// consumes the very tiles B and C are still producing — exactly the
// artificial dependency the paper's fork-join model inserts, turned into
// the canonical missing-join bug. The kernels are no-ops so the seeded race
// exists only at the declared-shadow level (the suite runs under -race; a
// real memory race would fail the run before the detector could report it).
func brokenA(f *Flow[Tag, ItemKey], ctx *forkjoin.Ctx, h int) {
	pool := visitorPool[Tag, ItemKey]()
	call := func(c *forkjoin.Ctx, t Tag) { f.call(pool, c, t, false) }
	call(ctx, Tag{0, 0, 0, h})
	var g forkjoin.Group
	ctx.Spawn(&g, func(c *forkjoin.Ctx) { call(c, Tag{0, 1, 0, h}) })
	ctx.Spawn(&g, func(c *forkjoin.Ctx) { call(c, Tag{1, 0, 0, h}) })
	// BUG under test: no ctx.Wait(&g) here.
	call(ctx, Tag{1, 1, 0, h})
	ctx.Wait(&g)
	call(ctx, Tag{1, 1, 1, h})
}

// TestForkJoinSeededRaceDetected proves the detector fires: the broken
// schedule must produce a deterministic RaceError naming two distinct tasks
// by fork path, on every seed tried. With n = 2·base the broken level is
// all base cases, so the seeded bug is exactly two unordered pairs — B's
// write of tile(0,1) vs D's read, and C's write of tile(1,0) vs D's read —
// and both must be found under every interleaving.
func TestForkJoinSeededRaceDetected(t *testing.T) {
	const n, base = 16, 8
	noop := Algorithm{Kernel: func(*matrix.Dense, int, int, int, int) {}, Shape: Triangular}
	var first string
	for seed := int64(0); seed < 10; seed++ {
		p := forkjoin.NewPool(forkjoin.Config{Workers: 4, Seed: seed})
		d := determinacy.NewDetector()
		p.WithRaceDetection(d)
		f, err := noop.Flow(matrix.NewSquare(n), base)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(func(c *forkjoin.Ctx) { brokenA(f, c, n/2) })
		p.Close()

		err = d.Err()
		if err == nil {
			t.Fatalf("seed %d: missing-join schedule not reported", seed)
		}
		if races := d.Races(); len(races) != 2 {
			t.Fatalf("seed %d: got %d races, want the 2 seeded pairs: %v", seed, len(races), races)
		}
		re, ok := err.(*determinacy.RaceError)
		if !ok {
			t.Fatalf("seed %d: Err() = %T, want *RaceError", seed, err)
		}
		if re.FirstTask == re.SecondTask {
			t.Fatalf("seed %d: race names one task twice: %v", seed, re)
		}
		if !strings.HasPrefix(re.FirstTask, "root") || !strings.HasPrefix(re.SecondTask, "root") {
			t.Fatalf("seed %d: tasks not named by fork path: %v", seed, re)
		}
		if !strings.HasPrefix(re.Cell, "tile(") {
			t.Fatalf("seed %d: cell not named: %v", seed, re)
		}
		// The schedule varies per seed; the report must not.
		if seed == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("seed %d reported %q, seed 0 reported %q", seed, err.Error(), first)
		}
	}
}

// BenchmarkForkJoinGE1K measures detection cost on the acceptance workload:
// GE at n=1024, base=64, 8 workers. detect=off is the production path (no
// detector installed — must stay at the undetected baseline); detect=on runs
// the identical schedule race-checked and is the overhead being reported
// (target: no more than 3x wall-clock).
func BenchmarkForkJoinGE1K(b *testing.B) {
	const n, base = 1024, 64
	alg := GE
	for _, detect := range []bool{false, true} {
		name := "detect=off"
		if detect {
			name = "detect=on"
		}
		b.Run(name, func(b *testing.B) {
			p := forkjoin.NewPool(forkjoin.Config{Workers: 8, Seed: 7})
			defer p.Close()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				x := geInput(n, 42)
				if detect {
					p.WithRaceDetection(determinacy.NewDetector())
				}
				b.StartTimer()
				if err := forkJoin(alg, x, base, p); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if detect {
					if err := p.RaceDetector().Err(); err != nil {
						b.Fatal(err)
					}
					p.WithRaceDetection(nil)
				}
				b.StartTimer()
			}
		})
	}
}

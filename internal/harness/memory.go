package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
)

// Memory-report geometry: 8x8 tiles per benchmark is large enough that the
// live set has real structure (interior tiles with full fan-in) yet small
// enough that three schedules x two runs x four benchmarks finishes in
// seconds.
const (
	memN       = 256
	memBase    = 32
	memWorkers = 8
	memSeed    = 7
)

// WriteMemory reports the bounded-memory contract of the CnC runtime on
// real benchmark graphs: for every GC-enabled schedule of every registered
// benchmark it runs once unbounded (measuring the natural peak live set)
// and once with the memory limit set to 95% of that measured peak. The
// claims checked per row:
//
//   - leak freedom: LiveItems == 0 at quiesce, ItemsFreed == ItemsPut;
//   - the peak live set is a fraction of the items put (get-count GC frees
//     tiles as their last reader completes, cf. the paper's data-movement
//     discussion in §V);
//   - under a limit, BackpressureStalls == 0 implies PeakLiveBytes <= limit
//     (throttled puts were deferred — waits — never admitted over budget).
//     A row with stalls is "degraded" whatever its peak: the converse is
//     not claimed, since a forced admission can be for a growing put's
//     headroom with the bytes still inside the limit.
//
// Each row also carries the run's wall time, and bounded rows its ratio to
// the unbounded run just above — the price of the limit (one run a side, so
// read it as an order of magnitude, not a measurement).
//
// Any violated claim is reported as an error so `dpbench -exp memory` can
// gate CI.
func WriteMemory(ctx context.Context, w io.Writer) error {
	variants := []core.Variant{core.NativeCnC, core.TunerCnC, core.ManualCnC}

	fmt.Fprintf(w, "# memory: get-count GC + backpressure, n=%d base=%d workers=%d (limit = 95%% of unbounded peak)\n", memN, memBase, memWorkers)
	fmt.Fprintf(w, "%6s %10s %10s %8s %6s %6s %8s %12s %12s %8s %8s %9s %7s %8s\n",
		"bench", "variant", "mode", "puts", "peak", "live", "freed", "peakbytes", "limit", "waits", "stalls", "wall_ms", "x_unb", "claims")

	var failures []string
	bounded, degraded := 0, 0
	// run executes a fresh instance through the checked envelope, which
	// owns the leak and peak claims; the row prints either way.
	run := func(b bench.Benchmark, v core.Variant, mode string, limit int64, unbounded time.Duration) (bench.Checked, error) {
		in, err := b.NewInstance(memN, memBase, memSeed)
		if err != nil {
			return bench.Checked{}, err
		}
		var tune func(*cnc.Graph)
		if limit > 0 {
			tune = func(g *cnc.Graph) { g.WithMemoryLimit(limit) }
		}
		c := bench.Check{}.Run(ctx, in, v, bench.RunOpts{Workers: memWorkers, Tune: tune})
		if err := ctx.Err(); err != nil {
			return c, err
		}
		writeMemRow(w, b.Name(), v.String(), mode, c.Stats, limit, c.Wall, unbounded)
		switch {
		case c.Err != nil:
			failures = append(failures, fmt.Sprintf("%s/%s %s: %v", b.Name(), v, mode, c.Err))
		case c.PeakLiveItems >= int64(c.ItemsPut):
			failures = append(failures, fmt.Sprintf("%s/%s %s: peak live %d never dropped below items put %d", b.Name(), v, mode, c.PeakLiveItems, c.ItemsPut))
		}
		return c, nil
	}
	for _, b := range bench.All() {
		for _, v := range variants {
			free, err := run(b, v, "unbounded", 0, 0)
			if err != nil {
				return err
			}
			capped, err := run(b, v, "bounded", free.PeakLiveBytes*95/100, free.Wall)
			if err != nil {
				return err
			}
			switch {
			case capped.Err != nil:
			case capped.BackpressureStalls > 0:
				degraded++
			default:
				bounded++
			}
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(w, "FAIL:", f)
		}
		return fmt.Errorf("memory: %d claim(s) violated", len(failures))
	}
	fmt.Fprintf(w, "\n// all rows leak-free (live=0, freed=puts); %d limited runs stalled nowhere and kept peak <= limit, %d reported stalls (degraded: the bound may have been exceeded)\n", bounded, degraded)
	return nil
}

// writeMemRow prints one run; unbounded is the wall of the unlimited run a
// bounded row is compared with (0 on unbounded rows).
func writeMemRow(w io.Writer, bench, variant, mode string, s cnc.Stats, limit int64, wall, unbounded time.Duration) {
	claims := "leak-free"
	if s.LiveItems != 0 {
		claims = "LEAK"
	}
	lim, ratio := "-", "-"
	if limit > 0 {
		lim = fmt.Sprint(limit)
		ratio = fmt.Sprintf("%.2f", float64(wall)/float64(unbounded))
		if s.BackpressureStalls == 0 && s.PeakLiveBytes <= limit {
			claims += ",bounded"
		} else if s.BackpressureStalls > 0 {
			claims += ",degraded"
		} else {
			claims = "OVER-LIMIT"
		}
	}
	fmt.Fprintf(w, "%6s %10s %10s %8d %6d %6d %8d %12d %12s %8d %8d %9.2f %7s %8s\n",
		bench, variant, mode, s.ItemsPut, s.PeakLiveItems, s.LiveItems, s.ItemsFreed,
		s.PeakLiveBytes, lim, s.BackpressureWaits, s.BackpressureStalls,
		float64(wall)/float64(time.Millisecond), ratio, claims)
}
